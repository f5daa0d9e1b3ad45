"""Span tracer that wraps qubocut's public functions from outside the package.

Each wrapped function is replaced in every module that looks it up at call
time, so calls made inside the package (``classical_pipeline`` calling
``quench``, ``quench`` calling ``brute_force_min``, ...) are seen as well as
the benchmark's own calls.  Nothing under ``src/`` is edited, and an
untraced run never constructs a :class:`Tracer`, so it installs no wrapper.

Spans are kept in memory (name, start, end, parent, op id) and written out
when the run ends.  Work counts are recorded at the same boundaries from the
arguments and results of each call, so they depend on instance sizes only.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import qubocut
from qubocut import community, graphs, polynomial, qaoa, reducer, solvers, wcnf, wht
from qubocut.errors import ResourceLimitError

# (span name, function name, modules that look the name up at call time).
# ``reducer.quench`` reaches ``brute_force_min`` through an import inside
# ``reducer._default_core_solver``, which reads the attribute of ``solvers``.
_TARGETS = (
    ("graphs.random_regular", "random_regular", (graphs,)),
    ("graphs.maxcut_to_qubo", "maxcut_to_qubo", (graphs, solvers)),
    ("community.detect_multilevel", "detect_multilevel", (community, solvers)),
    ("community.refine_boundary", "refine_boundary", (community, solvers)),
    ("reducer.split_energy", "split_energy", (reducer, solvers)),
    ("reducer.quench", "quench", (reducer, solvers)),
    ("reducer.table_to_polynomial", "table_to_polynomial", (reducer, solvers)),
    ("reducer.reduce_exact", "reduce_exact", (reducer,)),
    ("reducer.reduce_core_fixed", "reduce_core_fixed", (reducer,)),
    ("reducer.lift_solution", "lift_solution", (reducer, solvers)),
    ("polynomial.energy_table", "energy_table", (polynomial, solvers, qaoa)),
    ("wht.fwht", "fwht", (wht, polynomial, reducer)),
    ("solvers.brute_force_min", "brute_force_min", (solvers,)),
    ("solvers.classical_pipeline", "classical_pipeline", (solvers,)),
    ("qaoa.optimize", "optimize", (qaoa,)),
    ("qaoa.diagonal_energies", "diagonal_energies", (qaoa,)),
    ("wcnf.pubo_to_wcnf", "pubo_to_wcnf", (wcnf,)),
    ("wcnf.write_wcnf", "write_wcnf", (wcnf,)),
)
# methods of the statevector simulator class, wrapped on the class itself
_METHODS = (
    ("qaoa.evaluate", "expectation"),
    ("qaoa.simulate", "run"),
)
# calls that may refuse an instance on a resource cap before doing any work
_CAPPED = {"reducer.quench", "reducer.reduce_core_fixed"}

OP_SPAN = "op"


def _boundary_size(assignment) -> int:
    return int(assignment.boundary.sum())


def _count(counts, span: str, args, result) -> None:
    """Add the work counts of one finished call, from sizes alone."""
    if span == "community.refine_boundary":
        counts["community.boundary_removed"] += _boundary_size(args[1]) - _boundary_size(result)
    elif span == "reducer.quench":
        sub = args[0]
        counts["reducer.core_solves"] += 1 << sub.num_boundary
        counts["reducer.quench_cells"] += 1 << (sub.num_boundary + sub.num_core)
    elif span == "reducer.table_to_polynomial":
        counts["reducer.interp_coeffs"] += 1 << result.num_vars
        counts["reducer.interp_kept"] += len(result.terms)
    elif span in ("reducer.reduce_exact", "reducer.reduce_core_fixed"):
        terms = result.poly.terms
        degree = max((len(t) for t in terms), default=0)
        _count_reduced(counts, result.poly.num_vars, len(terms), degree)
    elif span == "solvers.classical_pipeline":
        hist = result.degree_histogram
        degree = max((int(d) for d in hist), default=0)
        _count_reduced(counts, result.boundary_size, sum(hist.values()), degree)
    elif span == "polynomial.energy_table":
        counts["polynomial.energy_table_cells"] += 1 << args[0].num_vars
    elif span == "wht.fwht":
        d = len(result)
        counts["wht.fwht_calls"] += 1
        counts["wht.fwht_cells"] += d
        counts["wht.fwht_butterflies"] += d // 2 * (d.bit_length() - 1)
    elif span == "solvers.brute_force_min":
        n = args[0].num_vars
        full = n <= solvers._FULL_TABLE_LIMIT
        counts["solvers.brute_full_calls" if full else "solvers.brute_chunked_calls"] += 1
        counts["solvers.brute_cells"] += 1 << n
    elif span == "qaoa.evaluate":
        simulator, params = args[0], args[1]
        counts["qaoa.evals"] += 1
        counts["qaoa.amplitude_updates"] += params.depth * simulator.d
    elif span == "wcnf.pubo_to_wcnf":
        counts["wcnf.clauses"] += len(result.clauses)
    elif span == "wcnf.write_wcnf":
        counts["wcnf.bytes"] += len(result.encode("utf-8"))


def _count_reduced(counts, num_vars: int, num_terms: int, degree: int) -> None:
    counts["reducer.reduced_instances"] += 1
    counts["reducer.reduced_vars"] += num_vars
    counts["reducer.reduced_terms"] += num_terms
    counts["reducer.reduced_degree_max"] = max(counts["reducer.reduced_degree_max"], degree)


class Tracer:
    """Records nested spans and work counts while ``scope`` is set.

    ``scope`` is ``"setup"`` or ``"ops"``; calls made with no scope (the
    output checks between ops) pass straight through.  Spans of one op share
    its op id; set-up spans carry the op id ``"setup"``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list = []
        self.counts = {"setup": defaultdict(int), "ops": defaultdict(int)}
        self.scope: str | None = None
        self.op_id = None
        self._op_span = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- span recording ---------------------------------------------------
    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin(self, scope: str, op_id) -> None:
        self.scope, self.op_id = scope, op_id
        if scope == "ops":
            self._op_span = self._open(OP_SPAN)

    def end(self) -> None:
        if self.scope == "ops":
            self._close(self._op_span)
        self.scope = self.op_id = None

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.scope is None:
                return fn(*args, **kwargs)
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                if span in _CAPPED:
                    tracer.counts[tracer.scope]["reducer.cap_refusals"] += 1
                raise
            finally:
                tracer._close(idx)
            _count(tracer.counts[tracer.scope], span, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every module (and the package) that names it."""
        for span, attr, modules in _TARGETS:
            original = getattr(modules[0], attr)
            wrapped = self._wrap(span, original)
            for module in (*modules, qubocut):
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
        for span, attr in _METHODS:
            original = getattr(qaoa._Simulator, attr)
            self._saved.append((qaoa._Simulator, attr, original))
            setattr(qaoa._Simulator, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------
    def self_times(self, scope_filter=None) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and calls.

        Self time is the span's duration minus the durations of its direct
        children, which the nesting guarantees lie inside it.
        """
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(n):
            if scope_filter is not None and not scope_filter(self.span_op[i]):
                continue
            row = table.setdefault(
                self.names[self.span_name[i]], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
            )
            dur = self.span_end[i] - self.span_start[i]
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            row["calls"] += 1
        return table

    def child_time(self, parent: str, name: str) -> float:
        """Seconds in ``name`` spans of the ops whose direct parent is a ``parent`` span."""
        pid, cid = self._name_ids.get(parent), self._name_ids.get(name)
        total = 0.0
        for i in range(len(self.span_name)):
            p = self.span_parent[i]
            if self.span_name[i] == cid and p >= 0 and self.span_name[p] == pid:
                if self.span_op[i] != "setup":
                    total += self.span_end[i] - self.span_start[i]
        return total

    def durations(self, name: str) -> list[float]:
        """Durations of the ops' ``name`` spans."""
        nid = self._name_ids.get(name)
        return [
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_name[i] == nid and self.span_op[i] != "setup"
        ]

    def write_spans(self, path) -> None:
        """Columnar JSON, gzip-compressed: one entry per span in each list."""
        data = {
            "names": self.names,
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
            "op": self.span_op,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)
