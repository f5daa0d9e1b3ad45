"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qubocut import community, qaoa, reducer, solvers  # noqa: E402

OPS_PER_CHECK = 3


def _traced_counts(workload, seed: int) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        instances, _ = run.build(workload, seed, tracer)
        for op_id, inst in enumerate(instances[:OPS_PER_CHECK]):
            tracer.begin("ops", op_id)
            try:
                out = workload.op(inst)
            finally:
                tracer.end()
            assert workload.check(inst, out) == []
    finally:
        tracer.uninstall()
    return {scope: dict(c) for scope, c in tracer.counts.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_for_one_seed(name):
    workload = workloads.WORKLOADS[name]
    first = _traced_counts(workload, seed=5)
    assert first["ops"], "the traced ops recorded no work"
    assert _traced_counts(workload, seed=5) == first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_instance_list(name):
    workload = workloads.WORKLOADS[name]

    def graph_seeds(seed):
        return [inst["graph_seed"] for inst in workload.build(seed)]

    assert graph_seeds(1) == graph_seeds(1)
    assert graph_seeds(1) != graph_seeds(2)


@pytest.mark.parametrize("name", ["reduce-sparse", "pipeline-exactness"])
def test_instance_choice_runs_no_detection(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("set-up ran community detection")

    monkeypatch.setattr(community, "detect_multilevel", refuse)
    assert workloads.WORKLOADS[name].build(3)


def test_failing_check_counts_as_failed_op():
    class Broken:
        def op(self, inst):
            return inst

        def check(self, inst, out):
            if out:
                raise ValueError("check broke")
            return []

        def describe(self, inst, out):
            return {}

        def quality(self, inst, out):
            return None, None

    result = run.measure(Broken(), [0, 1], seconds=0.0)
    assert len(result["op_times"]) == 2
    assert [f["instance"] for f in result["failures"]] == [1]
    assert "check broke" in result["failures"][0]["problems"][0]


def test_uninstall_restores_every_function():
    before = (reducer.quench, solvers.brute_force_min, qaoa._Simulator.run, solvers.quench)
    tracer = spans.Tracer()
    tracer.install()
    assert solvers.quench is not before[3]
    assert reducer.quench is solvers.quench
    tracer.uninstall()
    assert (reducer.quench, solvers.brute_force_min, qaoa._Simulator.run, solvers.quench) == before


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.begin("ops", 0)
    outer = tracer._open("a.outer")
    inner = tracer._open("b.inner")
    tracer._close(inner)
    tracer._close(outer)
    tracer.end()
    table = tracer.self_times()
    inner_s = table["b.inner"]["total_s"]
    outer_row = table["a.outer"]
    assert outer_row["self_s"] == pytest.approx(outer_row["total_s"] - inner_s)
    assert tracer.span_parent[inner] == outer


def test_tail_keeps_ten_ops_beyond():
    times = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail(times)
    assert (value, beyond) == (89.0, 10)
    assert percentile == 90.0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qaoa-p4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
