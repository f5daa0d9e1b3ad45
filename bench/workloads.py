"""The three benchmark workloads: instance set-up, one op, and its output checks.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns.  Instances come only from the workload seed.  Each
workload object exposes

* ``build(seed)`` -> list of instances (the set-up, timed as ``setup_s``);
* ``op(inst)`` -> output (the timed call into the package);
* ``check(inst, out)`` -> list of problems, empty when the output is right;
* ``describe(inst, out)`` -> one row of the run record's instance list;
* ``quality(inst, out)`` -> ``(qubits_saved, qaoa_ratio)`` of this op.

Package functions are looked up through their modules at call time, so the
traced run sees the benchmark's own calls as well as the package's.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from pools import detect
from qubocut import community, graphs, qaoa, reducer, solvers, wcnf

# Screened graph seeds per workload and class, written by ``pools.py``.
POOLS = json.loads((Path(__file__).resolve().parent / "pools.json").read_text())
QAOA_DEPTH = 4
QAOA_STARTS = 4
QAOA_BUDGET = 64
QAOA_SLACK = 1e-9


def _max_sizes(assignment) -> tuple[int, int]:
    """(max |B_c|, max |C_c|) over the communities of an assignment."""
    k = assignment.num_communities
    boundary = np.bincount(assignment.membership[assignment.boundary], minlength=k)
    core = np.bincount(assignment.membership[~assignment.boundary], minlength=k)
    return int(boundary.max(initial=0)), int(core.max(initial=0))


def _draw(workload: str, n: int, k: int, count: int, rng) -> list[tuple[int, int]]:
    """``count`` (graph seed, pool score) rows of one class, one per stratum.

    The class's pool is sorted by the score it was screened with and cut
    into ``count`` equal strata; ``rng`` picks one row from each.  Every seed
    thus spans the same quantiles of the pool, which keeps the figures steady
    from seed to seed, and the choice never runs the code under test.
    """
    pool = POOLS[workload][f"n{n}-k{k}"]
    edges = np.linspace(0, len(pool), count + 1).astype(int)
    rows = [pool[int(rng.integers(lo, hi))] for lo, hi in zip(edges[:-1], edges[1:])]
    return [(gseed, score) for score, gseed in rows]


def _interleave(groups: list[list], rng) -> list:
    """Round-robin over groups, each shuffled, so any prefix mixes them."""
    for group in groups:
        rng.shuffle(group)
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


class ReduceSparse:
    """``qubocut reduce`` up to the external MaxSAT solve, on sparse graphs.

    Quench work is heavy-tailed: it grows as 2**|B_c| per community and
    single draws with |B_c| = 16 took 39 s.  The pools therefore hold the
    graphs between each class's 20th and 60th percentile of predicted quench
    work, as screened once by ``pools.py``.
    """

    name = "reduce-sparse"
    # (n, k, graphs).  The cheap n = 60, k = 3 class is a fifth of the ops,
    # so the median op falls inside the two expensive classes rather than in
    # the gap below them.
    classes = ((60, 3, 6), (100, 3, 12), (60, 4, 12))
    samples = 3

    def build(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        groups = []
        for n, k, count in self.classes:
            group = []
            for gseed, score in _draw(self.name, n, k, count, rng):
                g = graphs.random_regular(n, k, gseed)
                group.append(
                    {"kind": "regular", "n": n, "k": k, "graph_seed": gseed, "graph": g,
                     "poly": graphs.maxcut_to_qubo(g), "pool_score": score}
                )
            groups.append(group)
        return _interleave(groups, rng)

    def op(self, inst):
        g, gseed = inst["graph"], inst["graph_seed"]
        assignment = community.detect_multilevel(g, seed=gseed)
        assignment = community.refine_boundary(g, assignment, seed=gseed)
        reduced = reducer.reduce_exact(inst["poly"], assignment)
        encoded = wcnf.pubo_to_wcnf(reduced.poly)
        text = wcnf.write_wcnf(encoded)
        return {"assignment": assignment, "reduced": reduced, "wcnf": encoded, "text": text}

    def check(self, inst, out) -> list[str]:
        reduced, encoded = out["reduced"], out.pop("wcnf")
        problems = []
        rng = np.random.default_rng([inst["graph_seed"], 2])
        for _ in range(self.samples):
            b = rng.choice(np.array([-1, 1], dtype=np.int8), size=reduced.poly.num_vars)
            e_reduced = reduced.poly.evaluate(b)
            e_lifted = inst["poly"].evaluate(reducer.lift_solution(reduced, b))
            if e_lifted != e_reduced:
                problems.append(f"lifted energy {e_lifted} != reduced energy {e_reduced}")
            identity = encoded.satisfied_weight(b) / encoded.scale + encoded.offset
            if identity != -e_reduced:
                problems.append(f"wcnf identity {identity} != {-e_reduced}")
        # compare the parsed copy against a digest, so the check never holds
        # two encodings at once and peak memory stays the op's own
        digest = (encoded.num_vars, hash(encoded.clauses), encoded.offset, encoded.scale)
        out["clauses"] = len(encoded.clauses)
        del encoded
        parsed = wcnf.parse_wcnf(out.pop("text"))
        if (parsed.num_vars, hash(parsed.clauses), parsed.offset, parsed.scale) != digest:
            problems.append("parse_wcnf(write_wcnf(w)) does not round-trip")
        return problems

    def describe(self, inst, out) -> dict:
        max_b, max_c = _max_sizes(out["assignment"])
        return {
            "kind": inst["kind"], "n": inst["n"], "k": inst["k"],
            "graph_seed": inst["graph_seed"], "mode": "exact",
            "B": out["reduced"].poly.num_vars, "max_B_c": max_b, "max_C_c": max_c,
            "pool_score": inst["pool_score"],
            "clauses": out["clauses"],
        }

    def quality(self, inst, out):
        return 1.0 - out["reduced"].poly.num_vars / inst["n"], None


class PipelineExactness:
    """``classical_pipeline`` with the default config, exact and core-fixed.

    Per class the graphs are spread evenly over the pool, which ``pools.py``
    sorted by boundary size B under the pipeline's own detection seed.
    """

    name = "pipeline-exactness"
    # n = 20 is three quarters of the ops so that the median op and the tail
    # op sit inside one size class each, not on the boundary between them
    classes = ((20, 3, 6), (22, 3, 2), (20, 4, 6), (22, 4, 2))
    modes = ("exact", "core-fixed")

    def build(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        groups = []
        for n, k, count in self.classes:
            group = []
            for gseed, score in _draw(self.name, n, k, count, rng):
                g = graphs.random_regular(n, k, gseed)
                group.extend(
                    {"kind": "regular", "n": n, "k": k, "graph_seed": gseed, "graph": g,
                     "mode": mode, "pool_score": score}
                    for mode in self.modes
                )
            groups.append(group)
        return _interleave(groups, rng)

    def op(self, inst):
        cfg = solvers.PipelineConfig(mode=inst["mode"])
        return solvers.classical_pipeline(inst["graph"], cfg)

    def check(self, inst, report) -> list[str]:
        e_orig, e_red, e_lift = report.e_min_original, report.e_min_reduced, report.lifted_energy
        if e_orig is None:
            return ["pipeline did not compute e_min_original"]
        problems = []
        if inst["mode"] == "exact":
            if e_red != e_orig:
                problems.append(f"exact e_min_reduced {e_red} != e_min_original {e_orig}")
            if e_lift != e_red:
                problems.append(f"lifted energy {e_lift} != e_min_reduced {e_red}")
        else:
            if e_red < e_orig:
                problems.append(f"core-fixed e_min_reduced {e_red} < e_min_original {e_orig}")
            # lifting re-minimizes each core under the chosen boundary, so it
            # can land strictly below the reduced minimum, never above it
            if not e_orig <= e_lift <= e_red:
                problems.append(
                    f"lifted energy {e_lift} outside [e_min_original {e_orig}, "
                    f"e_min_reduced {e_red}]"
                )
        return problems

    def describe(self, inst, report) -> dict:
        max_b, max_c = _max_sizes(detect(inst["graph"], solvers.PipelineConfig().seed))
        return {
            "kind": inst["kind"], "n": inst["n"], "k": inst["k"],
            "graph_seed": inst["graph_seed"], "mode": inst["mode"],
            "B": report.boundary_size, "max_B_c": max_b, "max_C_c": max_c,
        }

    def quality(self, inst, report):
        return 1.0 - report.boundary_size / inst["n"], None


class QaoaP4:
    """One depth-4 multistart QAOA optimisation under a fixed budget.

    Targets per graph: the original MaxCut polynomial and its exact and
    core-fixed reductions, as in acceptance criterion 09.  Like that
    criterion, the pool holds only graphs whose reduction shrank the register
    when ``pools.py`` screened them; they are spread evenly over its reduced
    size B.  The reductions and the ``e_min`` references are built here.
    """

    name = "qaoa-p4"
    sizes = (12, 14)
    graphs_per_size = 8

    def build(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 4])
        groups = []
        for n in self.sizes:
            group = []
            for gseed, score in _draw(self.name, n, 3, self.graphs_per_size, rng):
                g = graphs.random_regular(n, 3, gseed)
                assignment = detect(g, gseed)
                poly = graphs.maxcut_to_qubo(g)
                max_b, max_c = _max_sizes(assignment)
                targets = (
                    ("original", poly),
                    ("reduced-exact", reducer.reduce_exact(poly, assignment).poly),
                    ("reduced-core-fixed", reducer.reduce_core_fixed(poly, assignment).poly),
                )
                for tag, target in targets:
                    e_min, _ = solvers.brute_force_min(target)
                    group.append(
                        {"kind": "regular", "n": n, "k": 3, "graph_seed": gseed,
                         "target": tag, "poly": target, "e_min": e_min,
                         "max_B_c": max_b, "max_C_c": max_c, "pool_score": score}
                    )
            groups.append(group)
        return _interleave(groups, rng)

    def op(self, inst):
        return qaoa.optimize(
            inst["poly"], p=QAOA_DEPTH, budget=QAOA_BUDGET, starts=QAOA_STARTS,
            seed=inst["graph_seed"], e_min=inst["e_min"],
        )

    def check(self, inst, result) -> list[str]:
        e_min = inst["e_min"]
        slack = QAOA_SLACK * max(1.0, abs(e_min))
        problems = []
        if result.expectation < e_min - slack:
            problems.append(f"expectation {result.expectation} below e_min {e_min}")
        if result.ratio is None or result.ratio > 1.0 + QAOA_SLACK:
            problems.append(f"ratio {result.ratio} above 1")
        if result.evals_used > QAOA_BUDGET:
            problems.append(f"{result.evals_used} evaluations exceed budget {QAOA_BUDGET}")
        return problems

    def describe(self, inst, result) -> dict:
        return {
            "kind": inst["kind"], "n": inst["n"], "k": inst["k"],
            "graph_seed": inst["graph_seed"], "target": inst["target"],
            "B": inst["poly"].num_vars, "max_B_c": inst["max_B_c"],
            "max_C_c": inst["max_C_c"], "pool_score": inst["pool_score"],
            "evals_to_best_ratio": (int(np.argmin(result.trace)) + 1) / result.evals_used,
        }

    def quality(self, inst, result):
        saved = None if inst["target"] == "original" else 1.0 - inst["poly"].num_vars / inst["n"]
        return saved, result.ratio


WORKLOADS = {w.name: w for w in (ReduceSparse(), PipelineExactness(), QaoaP4())}
