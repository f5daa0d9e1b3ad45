"""qubocut benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload reduce-sparse --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` measures the same loop untraced for half the time, then
installs the tracer and measures it again, and reports the per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the run record
(instances, machine, versions, per-layer table, failures) goes to
``bench/results/``.  Any failed op makes the exit status 1.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


def _import_package():
    """Import qubocut from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qubocut
    except ImportError as exc:
        sys.exit(f"bench: cannot import qubocut from {src}: {exc}")
    if Path(qubocut.__file__).resolve().parent != (src / "qubocut").resolve():
        sys.exit(f"bench: qubocut imported from {qubocut.__file__}, not from {src}")
    import spans
    import workloads

    return workloads, spans


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): highest percentile with >= 10 ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def build(workload, seed: int, tracer=None) -> tuple[list, list[float]]:
    """Set the workload up ``SETUP_REPEATS`` times; returns instances and each time."""
    times, instances = [], None
    for _ in range(1 if tracer else SETUP_REPEATS):
        if tracer:
            tracer.begin("setup", "setup")
        t0 = time.perf_counter()
        try:
            instances = workload.build(seed)
        finally:
            if tracer:
                tracer.end()
        times.append(time.perf_counter() - t0)
    return instances, times


def measure(workload, instances, seconds: float, tracer=None, whole_rounds=False) -> dict:
    """Closed loop over the instance list until ``seconds`` have passed.

    At least one full round always runs.  With ``whole_rounds`` the loop only
    stops at the end of a round, so per-op work counts repeat exactly.  Every
    op's output is checked; the first passing op on each instance is also
    described for the run record.
    """
    op_times, failures, first = [], [], {}
    deadline = time.perf_counter() + seconds
    round_no = 0
    while True:
        for i, inst in enumerate(instances):
            op_id = len(op_times)
            if tracer:
                tracer.begin("ops", op_id)
            t0 = time.perf_counter()
            try:
                out = workload.op(inst)
                error = None
            except Exception:
                out, error = None, traceback.format_exc(limit=4)
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end()
            op_times.append(dt)
            try:
                problems = [error] if error else workload.check(inst, out)
                if not problems and i not in first:
                    first[i] = (workload.describe(inst, out), workload.quality(inst, out))
            except Exception:
                problems = [traceback.format_exc(limit=4)]
            if problems:
                failures.append({"op": op_id, "instance": i, "problems": problems})
            # drop the output before the next op so peak memory is one op's
            del out
            if not whole_rounds and round_no > 0 and time.perf_counter() >= deadline:
                break
        else:
            round_no += 1
            if time.perf_counter() < deadline:
                continue
        break
    return {"op_times": op_times, "failures": failures, "first": first, "rounds": round_no}


def _mean(values) -> float:
    """Mean of the values given; 1 when a workload produces none (no QAOA runs)."""
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 1.0


def end_to_end(run: dict, setup_s: float, tail_value: float) -> dict:
    times = run["op_times"]
    attempted = len(times)
    quality = [q for _, q in run["first"].values()]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (attempted / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_value, "s"),
        "ok_share": (1.0 - len(run["failures"]) / attempted, "ratio"),
        "qubits_saved_mean": (_mean(q[0] for q in quality), "ratio"),
        "qaoa_ratio_mean": (_mean(q[1] for q in quality), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, table: dict, setup_table: dict, run: dict, overhead_s: float) -> dict:
    """Per-layer metrics from the traced ops, per op unless stated otherwise."""
    ops = len(run["op_times"])
    counts = tracer.counts["ops"]
    reduced = counts if counts["reducer.reduced_instances"] else tracer.counts["setup"]

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names) / ops

    def total_s(*names):
        return sum(table.get(n, {}).get("total_s", 0.0) for n in names) / ops

    def per_op(key):
        return counts[key] / ops

    def ratio(num, den):
        return num / den if den else 0.0

    quench_s = total_s("reducer.quench")
    core_solve_s = tracer.child_time("reducer.quench", "solvers.brute_force_min") / ops
    evals = tracer.durations("qaoa.evaluate")
    sim_s = total_s("qaoa.simulate")
    fwht_s = total_s("wht.fwht")
    best = [d["evals_to_best_ratio"] for d, _ in run["first"].values() if "evals_to_best_ratio" in d]
    n_red = reduced["reducer.reduced_instances"]
    return {
        "community.detect_s": (self_s("community.detect_multilevel"), "s/op"),
        "community.refine_s": (self_s("community.refine_boundary"), "s/op"),
        "community.boundary_removed": (per_op("community.boundary_removed"), "count/op"),
        "reducer.split_s": (self_s("reducer.split_energy"), "s/op"),
        "reducer.quench_self_s": (self_s("reducer.quench"), "s/op"),
        "reducer.core_solve_s": (core_solve_s, "s/op"),
        "reducer.core_solves": (per_op("reducer.core_solves"), "count/op"),
        "reducer.quench_cells": (per_op("reducer.quench_cells"), "count/op"),
        "reducer.quench_ns_per_cell": (
            ratio(quench_s * 1e9, per_op("reducer.quench_cells")), "ns"),
        "reducer.interp_s": (self_s("reducer.table_to_polynomial"), "s/op"),
        "reducer.interp_kept_ratio": (
            ratio(counts["reducer.interp_kept"], counts["reducer.interp_coeffs"]), "ratio"),
        "reducer.assemble_s": (
            self_s("reducer.reduce_exact", "reducer.reduce_core_fixed"), "s/op"),
        "reducer.lift_s": (self_s("reducer.lift_solution"), "s/op"),
        "reducer.reduced_vars_mean": (ratio(reduced["reducer.reduced_vars"], n_red), "count"),
        "reducer.reduced_terms_mean": (ratio(reduced["reducer.reduced_terms"], n_red), "count"),
        "reducer.reduced_degree_max": (reduced["reducer.reduced_degree_max"], "count"),
        "reducer.cap_refusals": (
            counts["reducer.cap_refusals"] + tracer.counts["setup"]["reducer.cap_refusals"],
            "count"),
        "polynomial.energy_table_s": (self_s("polynomial.energy_table"), "s/op"),
        "polynomial.energy_table_cells": (per_op("polynomial.energy_table_cells"), "count/op"),
        "wht.fwht_s": (fwht_s, "s/op"),
        "wht.fwht_calls": (per_op("wht.fwht_calls"), "count/op"),
        "wht.fwht_cells": (per_op("wht.fwht_cells"), "count/op"),
        "wht.fwht_butterflies": (per_op("wht.fwht_butterflies"), "count/op"),
        "wht.fwht_ns_per_butterfly": (
            ratio(fwht_s * 1e9, per_op("wht.fwht_butterflies")), "ns"),
        # each butterfly stage reads and writes every float64 once, plus the input copy
        "wht.fwht_bytes_computed": (
            per_op("wht.fwht_butterflies") * 32 + per_op("wht.fwht_cells") * 16, "B/op"),
        "solvers.brute_full_calls": (per_op("solvers.brute_full_calls"), "count/op"),
        "solvers.brute_chunked_calls": (per_op("solvers.brute_chunked_calls"), "count/op"),
        "solvers.brute_s": (self_s("solvers.brute_force_min"), "s/op"),
        "solvers.brute_cells": (per_op("solvers.brute_cells"), "count/op"),
        "qaoa.diag_s": (total_s("qaoa.diagonal_energies"), "s/op"),
        "qaoa.evals": (per_op("qaoa.evals"), "count/op"),
        "qaoa.eval_s_p50": (statistics.median(evals) if evals else 0.0, "s"),
        "qaoa.sim_s": (sim_s, "s/op"),
        "qaoa.amplitude_updates": (per_op("qaoa.amplitude_updates"), "count/op"),
        "qaoa.ns_per_amplitude_update": (
            ratio(sim_s * 1e9, per_op("qaoa.amplitude_updates")), "ns"),
        "qaoa.optimizer_s": (
            total_s("qaoa.optimize") - total_s("qaoa.evaluate", "qaoa.diagonal_energies"),
            "s/op"),
        "qaoa.evals_to_best_ratio": (statistics.fmean(best) if best else 0.0, "ratio"),
        "wcnf.encode_s": (self_s("wcnf.pubo_to_wcnf"), "s/op"),
        "wcnf.write_s": (self_s("wcnf.write_wcnf"), "s/op"),
        "wcnf.clauses": (per_op("wcnf.clauses"), "count/op"),
        "wcnf.bytes": (per_op("wcnf.bytes"), "B/op"),
        # graph generation happens only in set-up: seconds per set-up
        "graphs.generate_s": (setup_table.get("graphs.random_regular", {}).get("self_s", 0.0), "s"),
        "graphs.to_qubo_s": (setup_table.get("graphs.maxcut_to_qubo", {}).get("self_s", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": None, "caches": {}, "mem_total": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total"] = line.split(":", 1)[1].strip()
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def layer_table(table: dict, ops: int) -> dict:
    """Self seconds per op, summed over each layer's spans."""
    out: dict[str, float] = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"] / ops
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, spans = _import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _T_START

    instances, setup_times = build(workload, args.seed)
    setup_s = import_s + statistics.median(setup_times)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "machine": machine(),
        "versions": versions(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "import_s": import_s, "setup_build_s": setup_times,
        "closed_loop": "one caller in one process; each op starts when the previous returns",
        "waiting_s": "zero by construction: no layer queues work in this single-process loop",
    }

    if args.trace:
        untraced = measure(workload, instances, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            instances, _ = build(workload, args.seed, tracer)
            run = measure(workload, instances, args.seconds / 2, tracer, whole_rounds=True)
        finally:
            tracer.uninstall()
        record["untraced_op_s_p50"] = statistics.median(untraced["op_times"])
        record["traced_op_s_p50"] = statistics.median(run["op_times"])
        overhead = record["traced_op_s_p50"] - record["untraced_op_s_p50"]
        table = tracer.self_times(lambda op: op != "setup")
        record["setup_spans"] = tracer.self_times(lambda op: op == "setup")
        metrics = per_layer(tracer, table, record["setup_spans"], run, overhead)
        ops = len(run["op_times"])
        record["layer_self_s_per_op"] = layer_table(table, ops)
        record["span_self_s_per_op"] = {
            name: {k: (v / ops if k != "calls" else v) for k, v in row.items()}
            for name, row in sorted(table.items())
        }
        record["work_counts_per_op"] = {k: v / ops for k, v in sorted(tracer.counts["ops"].items())}
        failures = untraced["failures"] + run["failures"]
        attempted = len(untraced["op_times"]) + ops
    else:
        run = measure(workload, instances, args.seconds)
        tail_value, pct, beyond = tail(run["op_times"])
        metrics = end_to_end(run, setup_s, tail_value)
        record["op_s_tail"] = {"value": tail_value, "percentile": pct, "ops_beyond": beyond}
        failures = run["failures"]
        attempted = len(run["op_times"])

    record["ops"] = len(run["op_times"])
    record["rounds"] = run["rounds"]
    record["failed_share"] = len(failures) / attempted
    record["failures"] = failures
    record["instances"] = [run["first"][i][0] for i in sorted(run["first"])]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(f"{stem}.spans.json.gz")

    for f in failures:
        print(f"FAILED op {f['op']} (instance {f['instance']}): {f['problems']}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
