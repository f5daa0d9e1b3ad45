"""The end-to-end classical pipeline: detect, quench, assemble, solve, lift."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .community import detect_multilevel, refine_boundary, score_g
from .errors import ParameterError, PipelineStepError
from .graphs import Graph, maxcut_to_qubo
from .polynomial import DEFAULT_BRUTE_CAP, PuboPolynomial, brute_force_min
from .qaoa import (
    DEFAULT_QAOA_BUDGET,
    DEFAULT_QAOA_CAP,
    DEFAULT_QAOA_DEPTH,
    DEFAULT_QAOA_STARTS,
    optimize,
)
from .reducer import (
    DEFAULT_BOUNDARY_CAP,
    MODES,
    assemble_reduced,
    lift_solution,
    quench_communities,
    reduce_core_fixed,
    reduce_exact,
)
# kept for the benchmark's tracer, which reads solvers._FULL_TABLE_LIMIT and solvers.quench
from .polynomial import _FULL_TABLE_LIMIT; from .reducer import quench  # noqa: E702, F401
from .wcnf import run_external_solver

__all__ = [
    "solve",
    "PipelineConfig",
    "PipelineReport",
    "classical_pipeline",
    "CSV_HEADER",
    "BACKENDS",
]

BACKENDS = ("oracle", "wcnf", "qaoa")


@dataclass
class PipelineConfig:
    """Knobs for :func:`classical_pipeline`.

    ``mode`` selects exact or core-fixed quenching.  ``backend`` ``"wcnf"``
    solves the reduced instance with the external weighted-MaxSAT solver
    ``solver_cmd``, which only it takes; ``"oracle"`` and ``"qaoa"`` use the
    brute-force oracle, and ``"qaoa"`` adds the QAOA comparison.
    ``boundary_cap`` bounds each community's boundary in exact mode;
    ``brute_cap`` bounds the exact solves of the reduced and (when it fits)
    the original instance, while every per-community solve runs under
    :func:`brute_force_min`'s own cap.
    """

    mode: str = "exact"
    backend: str = "oracle"
    seed: int = 0
    refine: bool = True
    boundary_cap: int = DEFAULT_BOUNDARY_CAP
    brute_cap: int = DEFAULT_BRUTE_CAP
    solver_cmd: str | None = None
    qaoa_depth: int = DEFAULT_QAOA_DEPTH
    qaoa_budget: int = DEFAULT_QAOA_BUDGET
    qaoa_starts: int = DEFAULT_QAOA_STARTS
    qaoa_cap: int = DEFAULT_QAOA_CAP
    graph_kind: str = ""
    graph_k: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.backend not in BACKENDS:
            raise ParameterError(f"unknown backend {self.backend!r}")
        if (self.backend == "wcnf") != (self.solver_cmd is not None):
            raise ParameterError("a solver command goes with backend 'wcnf' and only with it")


@dataclass
class PipelineReport:
    """Timings, reduction statistics and solutions of one pipeline run."""

    n: int
    num_edges: int
    mode: str
    backend: str
    seed: int
    num_communities: int = 0
    boundary_size: int = 0
    score: int = 0
    community_sizes: list[int] = field(default_factory=list)
    degree_histogram: dict = field(default_factory=dict)
    t_detect: float = 0.0
    t_quench: float = 0.0
    t_assemble: float = 0.0
    t_solve: float = 0.0
    e_min_original: float | None = None
    e_min_reduced: float | None = None
    lifted_energy: float | None = None
    lifted_spins: list[int] = field(default_factory=list)
    qaoa: dict | None = None
    graph_kind: str = ""
    graph_k: int | None = None

    @property
    def total_time(self) -> float:
        return self.t_detect + self.t_quench + self.t_assemble + self.t_solve

    def to_json_dict(self) -> dict:
        out = dict(self.__dict__)
        out["total_time"] = self.total_time
        return out

    def to_csv_row(self) -> str:
        return ",".join(_csv_cell(getattr(self, attr)) for _, attr in _CSV_COLUMNS)


# (CSV column, PipelineReport attribute); t1..t4 are the four stage timings
_CSV_COLUMNS = (
    ("n", "n"), ("k", "graph_k"), ("seed", "seed"), ("mode", "mode"),
    ("num_communities", "num_communities"), ("B", "boundary_size"), ("g", "score"),
    ("t1", "t_detect"), ("t2", "t_quench"), ("t3", "t_assemble"), ("t4", "t_solve"),
    ("e_min_original", "e_min_original"), ("e_min_reduced", "e_min_reduced"),
)
CSV_HEADER = ",".join(column for column, _ in _CSV_COLUMNS)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _qaoa_comparison(
    poly, instance, assignment, cfg: PipelineConfig,
    e_original: float | None, e_reduced: float,
) -> dict:
    """QAOA on the original and on both reductions, plus the wall time.

    ``e_original`` and ``e_reduced`` are the minima of ``poly`` and
    ``instance.poly`` the pipeline already found (``e_original`` is None
    above ``cfg.brute_cap``, and brute-forcing it then raises); only the
    other mode's reduction is built and brute-forced here.
    """
    t0 = time.perf_counter()
    if instance.mode == "exact":
        other = reduce_core_fixed(poly, assignment)
    else:
        other = reduce_exact(poly, assignment, boundary_cap=cfg.boundary_cap)
    targets = {instance.mode: (instance.poly, e_reduced), other.mode: (other.poly, None)}
    cases = (
        ("original", poly, e_original),
        ("reduced_exact", *targets["exact"]),
        ("reduced_core_fixed", *targets["core-fixed"]),
    )
    info = {"depth": cfg.qaoa_depth, "budget": cfg.qaoa_budget}
    for tag, target, e_min in cases:
        if e_min is None:
            e_min, _ = brute_force_min(target, cfg.brute_cap)
        result = optimize(
            target,
            p=cfg.qaoa_depth,
            budget=cfg.qaoa_budget,
            starts=cfg.qaoa_starts,
            seed=cfg.seed,
            e_min=e_min,
            cap=cfg.qaoa_cap,
        )
        info[f"ratio_{tag}"] = result.ratio
        info[f"expectation_{tag}"] = result.expectation
        info[f"evals_{tag}"] = result.evals_used
    info["seconds"] = time.perf_counter() - t0
    return info


def solve(poly: PuboPolynomial, solver_cmd=None, brute_cap: int = DEFAULT_BRUTE_CAP):
    """(minimum energy, argmin spins) of ``poly``: the external
    weighted-MaxSAT solver ``solver_cmd`` when one is given, else
    :func:`brute_force_min` under ``brute_cap``.  A failing solver raises;
    the oracle never stands in for it."""
    if solver_cmd is not None:
        return run_external_solver(poly, solver_cmd)
    return brute_force_min(poly, brute_cap)


@contextmanager
def _step(name: str, report: PipelineReport | None = None):
    """Re-raise a failure in the block as a :class:`PipelineStepError` naming
    step ``name``; given ``report``, store the block's wall time as its
    ``t_<name>``."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineStepError(name, exc) from exc
    if report is not None:
        setattr(report, f"t_{name}", time.perf_counter() - t0)


def classical_pipeline(g: Graph, cfg: PipelineConfig | None = None) -> PipelineReport:
    """Detect communities, quench, assemble the reduced PUBO, solve, lift.

    The four stages are timed separately (``t_solve`` covers solve and
    lift); any failure is re-raised as a :class:`PipelineStepError` naming
    the stage.  With ``backend="qaoa"`` the reduced instance is still solved
    exactly; afterwards, outside the timed stages, QAOA runs on the original
    and on both reductions and the result goes to ``report.qaoa``, with its
    wall time as ``report.qaoa["seconds"]``.  A failure there is step
    ``"qaoa"``.
    """
    cfg = cfg or PipelineConfig()
    report = PipelineReport(
        n=g.num_vertices,
        num_edges=g.num_edges,
        mode=cfg.mode,
        backend=cfg.backend,
        seed=cfg.seed,
        graph_kind=cfg.graph_kind,
        graph_k=cfg.graph_k,
    )
    poly = maxcut_to_qubo(g)

    with _step("detect", report):
        assignment = detect_multilevel(g, seed=cfg.seed)
        if cfg.refine:
            assignment = refine_boundary(g, assignment, seed=cfg.seed)
    report.num_communities = assignment.num_communities
    report.boundary_size = int(assignment.boundary.sum())
    report.score = score_g(assignment)
    report.community_sizes = assignment.sizes().tolist()

    # stage 2 runs split + quench; stage 3 converts tables and assembles
    with _step("quench", report):
        stage2 = quench_communities(poly, assignment, cfg.mode, cfg.boundary_cap)
    with _step("assemble", report):
        instance = assemble_reduced(assignment, cfg.mode, *stage2)
    report.degree_histogram = instance.degree_histogram()

    with _step("solve", report):
        e_reduced, reduced_spins = solve(instance.poly, cfg.solver_cmd, cfg.brute_cap)
        lifted = lift_solution(instance, reduced_spins)
        report.e_min_reduced = float(e_reduced)
        report.lifted_spins = lifted.tolist()
        report.lifted_energy = float(poly.evaluate(lifted))

    if g.num_vertices <= cfg.brute_cap:
        e_orig, _ = brute_force_min(poly, cfg.brute_cap)
        report.e_min_original = float(e_orig)

    if cfg.backend == "qaoa":
        with _step("qaoa"):
            report.qaoa = _qaoa_comparison(
                poly, instance, assignment, cfg,
                report.e_min_original, report.e_min_reduced,
            )
    return report
