"""Exact brute-force minimization and the end-to-end classical pipeline."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .bitops import index_to_spins
from .community import detect_multilevel, refine_boundary, score_g
from .errors import ExternalSolverError, ParameterError, PipelineStepError, ResourceLimitError
from .graphs import Graph, maxcut_to_qubo
from .polynomial import PuboPolynomial, energy_blocks, energy_table
from .qaoa import DEFAULT_QAOA_CAP, optimize
# ``quench`` stays importable as ``solvers.quench`` for the benchmark's tracer
from .reducer import (  # noqa: F401
    DEFAULT_BOUNDARY_CAP,
    MODES,
    assemble_reduced,
    lift_solution,
    quench,
    quench_communities,
    reduce_core_fixed,
    reduce_exact,
)
from .wcnf import pubo_to_wcnf, run_external_solver

__all__ = [
    "brute_force_min",
    "PipelineConfig",
    "PipelineReport",
    "classical_pipeline",
    "DEFAULT_BRUTE_CAP",
    "CSV_HEADER",
    "BACKENDS",
]

DEFAULT_BRUTE_CAP = 30
BACKENDS = ("oracle", "wcnf", "qaoa")
# Trailing variables per table in brute_force_min, and the size up to which
# it builds one energy table: on a 2-core x86-64 VM a product over one
# leading variable lost to the table at n = 12 and tied at n = 13, and
# limits 10 to 12 timed alike from n = 14 up.
_FULL_TABLE_LIMIT = 12


def brute_force_min(
    poly: PuboPolynomial, cap: int = DEFAULT_BRUTE_CAP
) -> tuple[float, np.ndarray]:
    """Exact minimum energy and its lowest-bitmask witness.

    Up to ``_FULL_TABLE_LIMIT`` variables this is one Walsh-Hadamard energy
    table and its argmin.  Above, the trailing ``_FULL_TABLE_LIMIT``
    variables stay in tables, one per distinct part of a term over the
    leading variables, and the energies of consecutive blocks of leading
    assignments come from products of character signs with those tables
    (:func:`energy_blocks`), so no table of ``2**n`` entries is built.  A
    later block replaces the best only when strictly lower, so ties go to
    the lowest mask.  With dyadic weights every sum is exact; otherwise the
    energy may differ from the summed terms in the last bits.
    """
    energy, mask = _minimum(poly, cap)
    return energy, index_to_spins(mask, poly.num_vars)


def _minimum(poly: PuboPolynomial, cap: int = DEFAULT_BRUTE_CAP) -> tuple[float, int]:
    """:func:`brute_force_min` with the witness as its bitmask."""
    n = poly.num_vars
    if n > cap:
        raise ResourceLimitError(f"{n} variables exceed the brute-force cap {cap}")
    if n <= _FULL_TABLE_LIMIT:
        energies = energy_table(poly)
        best_mask = int(energies.argmin())
        return float(energies[best_mask]), best_mask
    best_energy, best_mask = np.inf, 0
    for first, energies in energy_blocks(poly, n - _FULL_TABLE_LIMIT):
        local = int(np.argmin(energies))
        if first == 0 or energies.flat[local] < best_energy:
            best_energy = float(energies.flat[local])
            best_mask = (first << _FULL_TABLE_LIMIT) + local
    return best_energy, best_mask


@dataclass
class PipelineConfig:
    """Knobs for :func:`classical_pipeline`.

    ``mode`` selects exact or core-fixed quenching; ``backend`` solves the
    reduced instance with the in-package brute-force oracle, an external
    weighted-MaxSAT solver, or the QAOA simulator.  ``boundary_cap`` bounds
    each community's boundary in exact mode; ``brute_cap`` bounds the exact
    solves of the reduced and (when it fits) the original instance, while
    every per-community solve runs under :func:`brute_force_min`'s own cap.
    """

    mode: str = "exact"
    backend: str = "oracle"
    seed: int = 0
    refine: bool = True
    boundary_cap: int = DEFAULT_BOUNDARY_CAP
    brute_cap: int = DEFAULT_BRUTE_CAP
    solver_cmd: str | None = None
    solver_timeout: float | None = None
    fallback_to_oracle: bool = True
    qaoa_depth: int = 4
    qaoa_budget: int = 10_000
    qaoa_starts: int = 4
    qaoa_cap: int = DEFAULT_QAOA_CAP
    graph_kind: str = ""
    graph_k: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.backend not in BACKENDS:
            raise ParameterError(f"unknown backend {self.backend!r}")


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


def _solve_reduced(reduced: PuboPolynomial, cfg: PipelineConfig):
    """(minimum energy, argmin spins): the external solver for ``wcnf``,
    else (or as its fallback) the brute-force oracle."""
    if cfg.backend == "wcnf":
        if cfg.solver_cmd is None and not cfg.fallback_to_oracle:
            raise ParameterError("wcnf backend needs solver_cmd (or fallback enabled)")
        if cfg.solver_cmd is not None:
            try:
                res = run_external_solver(
                    pubo_to_wcnf(reduced), cfg.solver_cmd, reduced,
                    timeout=cfg.solver_timeout,
                )
                return res.energy, res.spins
            except ExternalSolverError:
                if not cfg.fallback_to_oracle:
                    raise
    return brute_force_min(reduced, cfg.brute_cap)


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
        e_reduced, reduced_spins = _solve_reduced(instance.poly, cfg)
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
