"""Tests of the benchmark itself: names, tracing invariants, smoke runs."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_valid():
    names = ([name for name, *_ in run.END_TO_END]
             + [name for name, *_ in run.PER_LAYER] + list(WORKLOADS))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in run.END_TO_END]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in run.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}


def test_readme_predicts_every_per_layer_metric():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for name, *_ in run.PER_LAYER:
        layer, _, quantity = name.rpartition(".")
        assert f"`{name}`" in readme or f"`.{quantity}`" in readme, name


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100))
    assert run.tail_percentile(samples) == (89, 0.9)
    value, quantile = run.tail_percentile(list(range(52)))
    assert 52 - 1 - value == 10 and quantile == pytest.approx(42 / 52)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 1.0)


def test_self_times_subtract_the_union_of_children():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0]).__next__
    tracer = tracing.Tracer(clock=clock)
    root = tracer.begin("root", None)                 # t=0
    first = tracer.begin("child", root)               # t=1
    second = tracer.begin("child", root)              # t=2
    first.end = clock()                               # t=3 (overlaps)
    second.end = clock()                              # t=4
    lone = tracer.begin("other", None)                # t=5
    root.end = lone.end = clock()                     # t=10
    selfs = tracing.self_times(tracer.spans)
    assert selfs[id(root)] == pytest.approx(10.0 - 3.0)
    assert selfs[id(first)] == pytest.approx(2.0)
    assert selfs[id(lone)] == pytest.approx(5.0)


def test_absent_target_is_reported_not_fatal():
    tracer = tracing.Tracer()
    targets = tracing.TARGETS + (
        ("gone.module", "repro.no_such_module", "f", tracing.SPAN),
        ("gone.method", "repro.csd.handler",
         "TransferHandler.no_such_method", tracing.SPAN))
    instrumentation = tracing.Instrumentation(tracer, targets)
    assert instrumentation.absent == ["gone.method", "gone.module"]
    with instrumentation:
        pass
    assert instrumentation.is_restored()


@pytest.fixture
def traced_dense_update(tmp_path):
    harness = run.Harness(WORKLOADS["dense_update"], seed=5,
                          workdir=tmp_path)
    engine, _ = harness.warmed_up()
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    loop = run.Loop()
    try:
        for index in range(3):
            with instrumentation:
                assert harness.step(engine, index, loop,
                                    wrap=lambda fn, i=index:
                                    tracer.run_step(i, fn))
            assert instrumentation.is_restored()
    finally:
        engine.close()
    return tracer, instrumentation


def test_traced_self_times_are_bounded_by_the_step(traced_dense_update):
    tracer, instrumentation = traced_dense_update
    assert not instrumentation.absent
    selfs = tracing.self_times(tracer.spans)
    assert all(value >= 0.0 for value in selfs.values())
    walls = {span.step: span.duration for span in tracer.spans
             if span.name == tracing.STEP}
    assert len(walls) == 3
    per_thread = {}
    for span in tracer.spans:
        key = (span.step, span.thread)
        per_thread[key] = per_thread.get(key, 0.0) + selfs[id(span)]
    for (step, _thread), total in per_thread.items():
        assert total <= walls[step] + 1e-9
    names = {span.name for span in tracer.spans}
    assert {"csd.handler.update_pass", "csd.kernels.updater",
            "nn.forward_backward", "storage.blockdev.pread"} <= names
    assert "compression.compress" not in names


def test_wrappers_are_restored_after_a_failing_step(tmp_path):
    from repro.csd.handler import TransferHandler
    from repro.runtime.engine import has_overflow
    original_pass = TransferHandler.run_update_pass
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    with pytest.raises(RuntimeError):
        with instrumentation:
            assert TransferHandler.run_update_pass is not original_pass
            raise RuntimeError("step failed")
    assert instrumentation.is_restored()
    assert TransferHandler.run_update_pass is original_pass
    from repro.runtime import engine as engine_module
    assert engine_module.has_overflow is has_overflow


def test_spans_on_pool_threads_are_parented_to_the_fan_out():
    from repro.runtime.parallel import CSDWorkerPool
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer), CSDWorkerPool(2) as pool:
        tracer.run_step(0, lambda: pool.map_ordered(
            lambda item: threading.current_thread().name, range(4)))
    fan_out = [s for s in tracer.spans
               if s.name == "runtime.parallel.map_ordered"]
    tasks = [s for s in tracer.spans if s.name == tracing.TASK]
    assert len(fan_out) == 1 and fan_out[0].workers == 2
    assert len(tasks) == 4 and all(t.parent is fan_out[0] for t in tasks)
    assert 0.0 <= tracing.idle_share(tracer) <= 1.0


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_its_correctness_check(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert '"usable_cpus"' in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_reports_every_layer(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert list(metrics) == [name for name, *_ in run.PER_LAYER]
    compressed = metrics["compression.compress.busy_s"]
    assert (compressed > 0) == (workload == "smartcomp_fanout")
    assert metrics["faults.injected"] == 0 and metrics["faults.retries"] == 0
    assert "absent" not in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run("--workload", "dense_update", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
