"""Undirected weighted graphs, random instance generators, and MaxCut energies.

Graphs are stored as canonical edge lists: each edge ``(u, v)`` with
``u < v``, no self-loops, no duplicates, sorted lexicographically.  Weights
default to 1.0 per edge when not given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .polynomial import PuboPolynomial

__all__ = [
    "Graph",
    "random_regular",
    "random_erdos_renyi",
    "maxcut_to_qubo",
    "read_graph",
    "write_graph",
]

_PAIRING_ATTEMPTS = 10_000


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with optional nonnegative edge weights."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        n = int(self.num_vertices)
        if n < 0:
            raise ParameterError(f"num_vertices must be nonnegative, got {n}")
        canon = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for {n} vertices")
            canon.append((u, v) if u < v else (v, u))
        order = sorted(range(len(canon)), key=lambda i: canon[i])
        weights = None
        if self.weights is not None:
            if len(self.weights) != len(canon):
                raise ParameterError(
                    f"{len(self.weights)} weights for {len(canon)} edges"
                )
            weights = tuple(float(self.weights[i]) for i in order)
            if not np.all(np.isfinite(weights)):
                raise ParameterError("edge weights must be finite")
            if any(w < 0 for w in weights):
                raise ParameterError("edge weights must be nonnegative")
        edges = tuple(canon[i] for i in order)
        if len(set(edges)) != len(edges):
            raise ParameterError("duplicate edges")
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def weight(self, index: int) -> float:
        return 1.0 if self.weights is None else self.weights[index]

    def total_weight(self) -> float:
        return float(self.num_edges) if self.weights is None else float(sum(self.weights))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_vertices, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-vertex list of (neighbor, edge weight) pairs."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.num_vertices)]
        for idx, (u, v) in enumerate(self.edges):
            w = self.weight(idx)
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.num_vertices == other.num_vertices
            and self.edges == other.edges
            and self.weights == other.weights
        )


def random_regular(n: int, k: int, seed: int) -> Graph:
    """Uniform-ish random k-regular simple graph via the pairing model.

    Stubs (k copies of each vertex) are shuffled and paired; draws containing
    a self-loop or duplicate edge are rejected wholesale and retried.
    """
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    if not 0 <= k < n:
        raise ParameterError(f"degree k must satisfy 0 <= k < n, got k={k}, n={n}")
    if (n * k) % 2:
        raise ParameterError(f"n*k must be even, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), k)
    for _ in range(_PAIRING_ATTEMPTS):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(edges) == pairs.shape[0]:
            return Graph(n, tuple(sorted(edges)))
    raise RuntimeError(f"pairing model failed after {_PAIRING_ATTEMPTS} attempts")


def random_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each vertex pair is an edge independently with probability p."""
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = tuple(zip(iu[keep].tolist(), ju[keep].tolist()))
    return Graph(n, edges)


def maxcut_to_qubo(g: Graph) -> PuboPolynomial:
    """MaxCut as spin minimization: E(s) = sum_e w_e/2 * s_u s_v - W/2.

    A cut edge (s_u != s_v) contributes -w_e, an uncut edge 0, so -E counts
    the cut weight and the minimum energy is minus the maximum cut.
    """
    terms: list[tuple[tuple[int, ...], float]] = [((), -g.total_weight() / 2.0)]
    for idx, (u, v) in enumerate(g.edges):
        terms.append(((u, v), g.weight(idx) / 2.0))
    return PuboPolynomial(g.num_vertices, terms)


def write_graph(g: Graph, path) -> None:
    """Text format: header ``n m``, then one ``u v [w]`` line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.num_vertices} {g.num_edges}\n")
        for idx, (u, v) in enumerate(g.edges):
            if g.weights is None:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {g.weights[idx]!r}\n")


def read_graph(path) -> Graph:
    """Parse the text format written by :func:`write_graph`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ParameterError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParameterError(f"malformed header {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ParameterError(f"header declares {m} edges, file has {len(lines) - 1}")
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    weighted = None
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ParameterError(f"malformed edge line {ln!r}")
        if weighted is None:
            weighted = len(parts) == 3
        elif weighted != (len(parts) == 3):
            raise ParameterError("mixed weighted and unweighted edge lines")
        edges.append((int(parts[0]), int(parts[1])))
        if weighted:
            weights.append(float(parts[2]))
    return Graph(n, tuple(edges), tuple(weights) if weighted else None)
