"""Tests for the benchmark itself: percentile rule, self time, output
checks, tracing and a tiny run of each workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Span, Tracer, self_times, uncovered

TINY = {
    "ensemble": lambda d: workloads.Ensemble(d, dims=(16, 32), trials=1),
    "amplify": lambda d: workloads.Amplify(d, order=8, k=2, inputs=2),
    "matfunc": lambda d: workloads.Matfunc(d, order=4, exp_trunc=3, cos_trunc=2, inputs=2),
}


@pytest.mark.parametrize("samples, expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (0, None),
])
def test_highest_percentile_keeps_ten_samples_beyond(samples, expected):
    assert run.highest_percentile(samples) == expected


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).exponential(size=37))
    for q in (50.0, 90.0, 99.0):
        assert run.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-15)


def test_self_time_of_nested_spans_on_two_threads():
    # thread 1: outer [0, 10] with child [2, 5]; thread 2 runs [1, 9] with
    # child [3, 4] at the same time and must not reduce thread 1's self time
    synthetic = [
        Span(0, "outer", 0.0, 10.0, None, 1, 0),
        Span(1, "child", 2.0, 5.0, 0, 1, 0),
        Span(2, "outer", 1.0, 9.0, None, 2, 0),
        Span(3, "child", 3.0, 4.0, 2, 2, 0),
    ]
    assert self_times(synthetic) == {0: 7.0, 1: 3.0, 2: 7.0, 3: 1.0}


def test_uncovered_counts_overlap_across_threads_once():
    outer = Span(0, "run", 0.0, 10.0, None, 1, 0)
    inner = [Span(1, "t", 1.0, 4.0, None, 2, 0), Span(2, "t", 3.0, 6.0, None, 3, 0),
             Span(3, "t", 8.0, 12.0, None, 2, 0)]
    assert uncovered(outer, inner) == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner())
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    outer()
    by_thread = {}
    for s in tracer.spans:
        by_thread.setdefault(s.thread, []).append(s)
    assert len(by_thread) == 2
    for group in by_thread.values():
        parent = next(s for s in group if s.name == "m.outer")
        child = next(s for s in group if s.name == "m.inner")
        assert parent.parent is None and child.parent == parent.id


def test_tracer_reports_absent_names_and_restores(monkeypatch):
    package = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def present(x):
        return x + 1

    present.__module__ = "fakepkg.sub"
    sub.present = present
    package.present = present
    package.__all__ = ["present", "removed_function"]
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    tracer = Tracer()
    tracer.install(package)
    assert sub.present is not present and package.present is not present
    assert sub.present(1) == 2
    tracer.uninstall()
    assert sub.present is present and package.present is present
    assert "removed_function" in tracer.absent
    assert [s.name for s in tracer.spans] == ["sub.present"]


def _calls(workload, count):
    out = []
    for i in range(count):
        call = workloads.Call(index=i, seconds=0.0, ops=workload.ops_per_call())
        workload.collect(call, workload.run(i))
        out.append(call)
    return out


def _perturb(name, call):
    if name == "ensemble":
        call.data["records"][1][2] += 1e-6  # c2
    elif name == "amplify":
        call.data["rows"][0][1] += 1e-6  # iteration-0 probability
    else:
        call.data["fidelity"] += 1e-6  # printed final fidelity


@pytest.mark.parametrize("name", sorted(TINY))
def test_checker_catches_a_record_perturbed_by_1e_6(name, tmp_path):
    workload = TINY[name](tmp_path)
    workload.prepare(5)
    (call,) = _calls(workload, 1)
    workload.check(call)
    assert call.failed == 0, call.problems
    _perturb(name, call)
    workload.check(call)
    assert call.failed == 1 and call.problems


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_untraced_and_traced(name, tmp_path):
    import oaasim

    workload = TINY[name](tmp_path)
    workload.prepare(7)
    plain = run.measure(workload, 0, 0.05, 0)
    tracer = Tracer()
    tracer.install(oaasim)
    try:
        traced = run.measure(workload, 0, 0.05, 0, tracer)
    finally:
        tracer.uninstall()
    run.check_calls(workload, plain)
    run.check_calls(workload, traced)
    assert sum(c.failed for c in plain + traced) == 0
    assert workload.latency_samples(plain)
    for a, b in zip(plain, traced):
        assert a.text == b.text
    assert tracer.absent == [] and tracer.spans
    values = layers.layer_metrics(tracer.spans, sum(c.ops for c in traced), 1.0)
    assert list(values) == list(layers.metric_units())
    assert values["circuit.apply_calls"] > 0


def test_reference_comparison_catches_a_perturbed_record(tmp_path):
    workload = workloads.Amplify(tmp_path)
    workload.prepare(run.REFERENCE_SEED)
    calls = _calls(workload, 2)
    assert run.compare_reference(workload, calls) == []
    calls[1].data["rows"][5][2] += 1e-6
    assert len(run.compare_reference(workload, calls)) == 1


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_metrics_benchmark_json_lists():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == ["ensemble", "amplify"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    done = _bench(run.ROOT, "--workload", "matfunc", "--seconds", "0.3", "--seed", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench(tmp_path, "--workload", "amplify", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

