"""Exact brute-force minimization and the end-to-end classical pipeline."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bitops import index_to_spins
from .community import detect_multilevel, refine_boundary, score_g
from .errors import ParameterError, PipelineStepError, ResourceLimitError
from .graphs import Graph, maxcut_to_qubo
from .polynomial import PuboPolynomial, energy_table
# ``quench`` stays importable as ``solvers.quench`` for the benchmark's tracer
from .reducer import (  # noqa: F401
    DEFAULT_BOUNDARY_CAP,
    ReducedInstance,
    assemble_reduced,
    lift_solution,
    quench,
    quench_communities,
)

__all__ = [
    "brute_force_min",
    "PipelineConfig",
    "PipelineReport",
    "classical_pipeline",
    "DEFAULT_BRUTE_CAP",
    "CSV_HEADER",
]

DEFAULT_BRUTE_CAP = 30
_FULL_TABLE_LIMIT = 22


def brute_force_min(
    poly: PuboPolynomial, cap: int = DEFAULT_BRUTE_CAP
) -> tuple[float, np.ndarray]:
    """Exact minimum energy and its lowest-bitmask witness.

    The leading ``max(0, n - 22)`` variables are pinned to each of their
    assignments in ascending mask order; the rest form one Walsh-Hadamard
    energy table of at most ``2**22`` entries per assignment, so memory stays
    bounded up to ``cap`` variables.  A later block replaces the best only
    when strictly lower, so ties go to the lowest mask.
    """
    n = poly.num_vars
    if n > cap:
        raise ResourceLimitError(f"{n} variables exceed the brute-force cap {cap}")
    lead = max(0, n - _FULL_TABLE_LIMIT)
    best_energy, best_mask = np.inf, 0
    for prefix in range(1 << lead):
        block = poly
        if lead:
            block = poly.restrict(dict(enumerate(index_to_spins(prefix, lead).tolist())))
        energies = energy_table(block)
        local = int(np.argmin(energies))
        if prefix == 0 or energies[local] < best_energy:
            best_energy = float(energies[local])
            best_mask = (prefix << (n - lead)) | local
    return best_energy, index_to_spins(best_mask, n)


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
    qaoa_cap: int = 24
    graph_kind: str = ""
    graph_k: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "core-fixed"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.backend not in ("oracle", "wcnf", "qaoa"):
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
        def fmt(x):
            return "" if x is None else repr(x)

        return ",".join(
            [
                str(self.n),
                "" if self.graph_k is None else str(self.graph_k),
                str(self.seed),
                self.mode,
                str(self.num_communities),
                str(self.boundary_size),
                str(self.score),
                repr(self.t_detect),
                repr(self.t_quench),
                repr(self.t_assemble),
                repr(self.t_solve),
                fmt(self.e_min_original),
                fmt(self.e_min_reduced),
            ]
        )


CSV_HEADER = "n,k,seed,mode,num_communities,B,g,t1,t2,t3,t4,e_min_original,e_min_reduced"


def _qaoa_comparison(poly, instance, assignment, cfg: PipelineConfig) -> dict:
    """Ratios for the three cases: original, reduced exact, reduced core-fixed."""
    from .qaoa import optimize
    from .reducer import reduce_core_fixed, reduce_exact

    if instance.mode == "exact":
        exact_poly = instance.poly
        cf_poly = reduce_core_fixed(poly, assignment).poly
    else:
        cf_poly = instance.poly
        exact_poly = reduce_exact(poly, assignment, boundary_cap=cfg.boundary_cap).poly
    info = {"depth": cfg.qaoa_depth, "budget": cfg.qaoa_budget}
    cases = (
        ("original", poly),
        ("reduced_exact", exact_poly),
        ("reduced_core_fixed", cf_poly),
    )
    for tag, target in cases:
        e_min, _ = brute_force_min(target, cfg.brute_cap)
        result = optimize(
            target,
            p=cfg.qaoa_depth,
            budget=cfg.qaoa_budget,
            starts=cfg.qaoa_starts,
            seed=cfg.seed,
            e_min=e_min if e_min != 0 else None,
            cap=cfg.qaoa_cap,
        )
        info[f"ratio_{tag}"] = result.ratio
        info[f"expectation_{tag}"] = result.expectation
        info[f"evals_{tag}"] = result.evals_used
    return info


def _solve_reduced(instance: ReducedInstance, poly, assignment, cfg: PipelineConfig):
    """Returns (reduced min energy, reduced argmin spins, qaoa info or None)."""
    reduced = instance.poly
    if cfg.backend == "wcnf":
        from .errors import ExternalSolverError
        from .wcnf import pubo_to_wcnf, run_external_solver

        if cfg.solver_cmd is None and not cfg.fallback_to_oracle:
            raise ParameterError("wcnf backend needs solver_cmd (or fallback enabled)")
        if cfg.solver_cmd is not None:
            try:
                res = run_external_solver(
                    pubo_to_wcnf(reduced), cfg.solver_cmd, reduced,
                    timeout=cfg.solver_timeout,
                )
                return res.energy, res.spins, None
            except ExternalSolverError:
                if not cfg.fallback_to_oracle:
                    raise
        return (*brute_force_min(reduced, cfg.brute_cap), None)
    if cfg.backend == "qaoa":
        e_min, spins = brute_force_min(reduced, cfg.brute_cap)
        return e_min, spins, _qaoa_comparison(poly, instance, assignment, cfg)
    return (*brute_force_min(reduced, cfg.brute_cap), None)


def classical_pipeline(g: Graph, cfg: PipelineConfig | None = None) -> PipelineReport:
    """Detect communities, quench, assemble the reduced PUBO, solve, lift.

    The four stages are timed separately; any failure is re-raised as a
    :class:`PipelineStepError` naming the stage.
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

    t0 = time.perf_counter()
    try:
        assignment = detect_multilevel(g, seed=cfg.seed)
        if cfg.refine:
            assignment = refine_boundary(g, assignment, seed=cfg.seed)
    except Exception as exc:
        raise PipelineStepError("detect", exc) from exc
    report.t_detect = time.perf_counter() - t0
    report.num_communities = assignment.num_communities
    report.boundary_size = int(assignment.boundary.sum())
    report.score = score_g(assignment)
    report.community_sizes = assignment.sizes().tolist()

    # stage 2 runs split + quench; stage 3 converts tables and assembles
    t0 = time.perf_counter()
    try:
        stage2 = quench_communities(poly, assignment, cfg.mode, cfg.boundary_cap)
    except Exception as exc:
        raise PipelineStepError("quench", exc) from exc
    report.t_quench = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        instance = assemble_reduced(assignment, cfg.mode, *stage2)
    except Exception as exc:
        raise PipelineStepError("assemble", exc) from exc
    report.t_assemble = time.perf_counter() - t0
    report.degree_histogram = instance.degree_histogram()

    t0 = time.perf_counter()
    try:
        e_reduced, reduced_spins, qaoa_info = _solve_reduced(
            instance, poly, assignment, cfg
        )
        lifted = lift_solution(instance, reduced_spins)
        report.e_min_reduced = float(e_reduced)
        report.lifted_spins = lifted.tolist()
        report.lifted_energy = float(poly.evaluate(lifted))
        report.qaoa = qaoa_info
    except Exception as exc:
        raise PipelineStepError("solve", exc) from exc
    report.t_solve = time.perf_counter() - t0

    if g.num_vertices <= cfg.brute_cap:
        e_orig, _ = brute_force_min(poly, cfg.brute_cap)
        report.e_min_original = float(e_orig)
    return report
