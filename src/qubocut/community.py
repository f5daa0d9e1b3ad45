"""Community detection and boundary-minimizing refinement.

Detection is multilevel modularity maximization (local moves until no strict
improvement, then contraction, repeated).  Refinement then greedily relabels
single vertices to shrink

    g(C) = max(|B|, max_c |community c|),

where ``B`` is the set of boundary vertices (incident to at least one
cross-community edge).  ``|B|`` is the variable count of the reduced problem
and the largest community bounds the cost of quenching one community, so
``g`` is the bottleneck exponent of the whole reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphs import Graph

__all__ = [
    "CommunityAssignment",
    "detect_multilevel",
    "refine_boundary",
    "score_g",
    "modularity",
    "read_membership",
    "write_membership",
]

_MAX_LOCAL_PASSES = 1_000


@dataclass(frozen=True, eq=False)
class CommunityAssignment:
    """Vertex partition with precomputed boundary flags.

    ``membership[v]`` is the community of vertex ``v``; ids are contiguous
    ``0..num_communities-1``, relabeled by first appearance from the
    nonnegative integer ids :meth:`from_membership` reads.  ``boundary[v]``
    is true when ``v`` has a neighbor in another community in
    :meth:`Graph.adjacency`, which lists only edges of nonzero weight.
    """

    membership: np.ndarray
    num_communities: int
    boundary: np.ndarray

    @classmethod
    def from_membership(cls, g: Graph, membership) -> "CommunityAssignment":
        member = np.asarray(membership)
        if member.shape != (g.num_vertices,):
            raise ParameterError(
                f"membership length {member.size} != {g.num_vertices} vertices"
            )
        if member.size and member.dtype.kind not in "iu":
            raise ParameterError(f"community ids must be integers, got dtype {member.dtype}")
        member = member.astype(np.int64)
        if member.size and member.min() < 0:
            raise ParameterError("community ids must be nonnegative")
        k = _relabel_by_first_appearance(member)
        return cls(member, k, np.array(_external_degree(g.adjacency(), member.tolist())) > 0)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.membership, minlength=self.num_communities)

    def vertices_of(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.membership == c)

    def boundary_of(self, c: int) -> np.ndarray:
        return np.flatnonzero((self.membership == c) & self.boundary)

    def core_of(self, c: int) -> np.ndarray:
        return np.flatnonzero((self.membership == c) & ~self.boundary)

    def global_boundary(self) -> np.ndarray:
        return np.flatnonzero(self.boundary)


def _relabel_by_first_appearance(member) -> int:
    """Renumber ids in place to ``0, 1, ...`` by first appearance; return the count."""
    relabel: dict[int, int] = {}
    for v in range(len(member)):
        member[v] = relabel.setdefault(int(member[v]), len(relabel))
    return len(relabel)


def _external_degree(adj, member: list[int]) -> list[int]:
    """Number of neighbours in another community, per vertex of adjacency ``adj``."""
    ext = [0] * len(adj)
    for v, nbrs in enumerate(adj):
        for u, _ in nbrs:
            if member[u] != member[v]:
                ext[v] += 1
    return ext


def score_g(assignment: CommunityAssignment) -> int:
    """max(total boundary size, largest community size)."""
    boundary_total = int(assignment.boundary.sum())
    largest = int(assignment.sizes().max()) if assignment.num_communities else 0
    return max(boundary_total, largest)


def modularity(g: Graph, membership) -> float:
    """Newman modularity at resolution 1 of a vertex partition."""
    member = CommunityAssignment.from_membership(g, membership).membership
    m = g.total_weight()
    if m <= 0:
        return 0.0
    intra = 0.0
    tot: dict[int, float] = {}
    for idx, (u, v) in enumerate(g.edges):
        w = g.weight(idx)
        if member[u] == member[v]:
            intra += w
        tot[int(member[u])] = tot.get(int(member[u]), 0.0) + w
        tot[int(member[v])] = tot.get(int(member[v]), 0.0) + w
    return intra / m - sum((t / (2.0 * m)) ** 2 for t in tot.values())


def _local_moves(adj, strength, m2, membership, rng) -> None:
    """One level of modularity local search; strict improvements only.

    ``membership`` is a list, updated in place.  Vertices are scanned in a
    fresh seeded permutation each pass; a vertex moves to the community with
    the largest positive modularity gain, ties rejected (and ties between
    distinct winning targets broken toward the lower community id by scan
    order).
    """
    n = len(membership)
    tot = [0.0] * n
    for v in range(n):
        tot[membership[v]] += strength[v]
    for _ in range(_MAX_LOCAL_PASSES):
        moves = 0
        for v in rng.permutation(n).tolist():
            old = membership[v]
            k_v = strength[v]
            wcom: dict[int, float] = {}
            for u, w in adj[v]:
                c = membership[u]
                wcom[c] = wcom.get(c, 0.0) + w
            tot[old] -= k_v
            best_c = old
            best_gain = wcom.get(old, 0.0) - tot[old] * k_v / m2
            for c in sorted(wcom):
                if c == old:
                    continue
                gain = wcom[c] - tot[c] * k_v / m2
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            tot[best_c] += k_v
            if best_c != old:
                membership[v] = best_c
                moves += 1
        if moves == 0:
            break


def detect_multilevel(g: Graph, seed: int = 0) -> CommunityAssignment:
    """Multilevel modularity communities; deterministic for a given seed."""
    n = g.num_vertices
    if n == 0:
        return CommunityAssignment.from_membership(g, np.zeros(0, dtype=np.int64))
    m2 = 2.0 * g.total_weight()
    if m2 <= 0:
        return CommunityAssignment.from_membership(g, np.arange(n))
    rng = np.random.default_rng(seed)

    adj = g.adjacency()
    self_loop = [0.0] * n
    strength = [sum(w for _, w in nbrs) for nbrs in adj]
    global_member = np.arange(n, dtype=np.int64)
    level_n = n

    while True:
        level_member = list(range(level_n))
        _local_moves(adj, strength, m2, level_member, rng)
        k = _relabel_by_first_appearance(level_member)
        if k == level_n:  # from singletons, any move empties a community
            break
        global_member = np.array(level_member, dtype=np.int64)[global_member]
        # contract communities to vertices; intra weight becomes a self-loop
        new_self = [0.0] * k
        cross: dict[tuple[int, int], float] = {}
        for v in range(level_n):
            cv = level_member[v]
            new_self[cv] += self_loop[v]
            for u, w in adj[v]:
                if u < v:
                    continue
                cu = level_member[u]
                if cu == cv:
                    new_self[cv] += w
                else:
                    key = (cv, cu) if cv < cu else (cu, cv)
                    cross[key] = cross.get(key, 0.0) + w
        adj = [[] for _ in range(k)]
        for (a, b), w in cross.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        adj = [sorted(nbrs) for nbrs in adj]
        strength = [sum(w for _, w in adj[c]) + 2.0 * new_self[c] for c in range(k)]
        self_loop = new_self
        level_n = k

    return CommunityAssignment.from_membership(g, global_member)


def refine_boundary(
    g: Graph, assignment: CommunityAssignment, seed: int = 0
) -> CommunityAssignment:
    """Greedy single-vertex relabeling that strictly decreases ``g``.

    Each pass scans vertices in a fresh seeded order.  One scan of a vertex's
    neighbours predicts ``|B|`` and the score after moving it to each other
    nonempty community; the first target in ascending id order whose score
    is strictly lower is taken, and its prediction becomes the new ``|B|``.
    Stops at the first pass with no accepted move.  No new community ids are
    introduced; ids emptied along the way are compacted in the returned
    assignment.
    """
    n = g.num_vertices
    if assignment.membership.shape != (n,):
        raise ParameterError(
            f"assignment covers {assignment.membership.size} vertices, graph has {n}"
        )
    rng = np.random.default_rng(seed)
    membership = assignment.membership.tolist()
    k = assignment.num_communities
    sizes = np.bincount(membership, minlength=k).tolist()
    adj = g.adjacency()
    ext = _external_degree(adj, membership)
    boundary_total = sum(e > 0 for e in ext)
    score = max(boundary_total, max(sizes, default=0))

    accepted = True
    while accepted:
        accepted = False
        for v in rng.permutation(n).tolist():
            a = membership[v]
            largest_other = max(sizes[:a] + sizes[a + 1 :], default=0)
            # inside[c]: neighbours in c; exposed: neighbours in a that join B
            # when v leaves; freed[c]: neighbours in c that leave B when v joins
            inside = [0] * k
            freed = [0] * k
            exposed = 0
            for u, _ in adj[v]:
                c = membership[u]
                inside[c] += 1
                if c == a:
                    exposed += ext[u] == 0
                elif ext[u] == 1:
                    freed[c] += 1
            deg_v = len(adj[v])
            kept = boundary_total + exposed - (ext[v] > 0)
            for b in range(k):
                if b == a or sizes[b] == 0:
                    continue
                boundary = kept + (deg_v > inside[b]) - freed[b]
                new_score = max(boundary, sizes[b] + 1, sizes[a] - 1, largest_other)
                if new_score < score:
                    break
            else:
                continue
            for u, _ in adj[v]:
                c = membership[u]
                if c == a:
                    ext[u] += 1
                elif c == b:
                    ext[u] -= 1
            ext[v] = deg_v - inside[b]
            membership[v] = b
            sizes[a] -= 1
            sizes[b] += 1
            boundary_total, score = boundary, new_score
            accepted = True

    return CommunityAssignment.from_membership(g, membership)


def write_membership(assignment: CommunityAssignment, path) -> None:
    """One ``vertex community`` pair per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for v, c in enumerate(assignment.membership):
            fh.write(f"{v} {int(c)}\n")


def read_membership(g: Graph, path) -> CommunityAssignment:
    """Parse the format written by :func:`write_membership`.

    The ids are left to :meth:`CommunityAssignment.from_membership`, which
    refuses a negative one by name.
    """
    ids = [0] * g.num_vertices
    listed = set()
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise ParameterError(f"malformed membership line {ln!r}")
            v, c = int(parts[0]), int(parts[1])
            if not 0 <= v < g.num_vertices:
                raise ParameterError(f"vertex {v} out of range")
            if v in listed:
                raise ParameterError(f"vertex {v} listed twice")
            listed.add(v)
            ids[v] = c
    if len(listed) < g.num_vertices:
        missing = min(set(range(g.num_vertices)) - listed)
        raise ParameterError(f"vertex {missing} has no community")
    return CommunityAssignment.from_membership(g, ids)
