"""Bench history: migration, median baselines, the regression gate.

The gate's contract: append-only history under ``benchmarks/results/``,
baselines matched on environment fingerprint + workload shape + quick
flag, median-of-window comparison, and a non-zero ``python -m repro
bench --compare`` exit on a >threshold throughput drop — verified here
with synthetic histories (where the regression is injected exactly) and
once through the real CLI.
"""

import json

import pytest

from repro.cli import main
from repro.runtime.bench_history import (BASELINE_WINDOW, HISTORY_SCHEMA,
                                         append_entry, compare_to_history,
                                         entry_from_report, load_history,
                                         save_history)

_WORKLOAD = {"dim": 64, "num_layers": 2, "vocab_size": 128,
             "seq_len": 32, "batch": 4, "subgroup_elements": 4096,
             "kernel_chunk_elements": 1024, "steps": 3}


def fake_report(configs, quick=True, cpu_count=8, usable_cpus=8):
    """A minimal bench report: {'1x1': steps_per_second, ...}."""
    runs = []
    for config, steps_per_second in configs.items():
        num_csds, workers = config.split("x")
        runs.append({"num_csds": int(num_csds), "workers": int(workers),
                     "steps_per_second": steps_per_second})
    return {
        "schema": "smart-infinity/bench-parallel/v1",
        "quick": quick,
        "environment": {"cpu_count": cpu_count,
                        "usable_cpus": usable_cpus},
        "workload": dict(_WORKLOAD),
        "runs": runs,
    }


def fake_entry(configs, timestamp=0.0, **kwargs):
    return entry_from_report(fake_report(configs, **kwargs),
                             timestamp=timestamp)


def test_entry_from_report_distills_configs():
    entry = fake_entry({"1x1": 10.0, "4x4": 25.0}, timestamp=123.0)
    assert entry["timestamp"] == 123.0
    assert entry["quick"] is True
    assert entry["configs"] == {"1x1": 10.0, "4x4": 25.0}
    assert entry["workload"] == _WORKLOAD
    assert entry["environment"]["cpu_count"] == 8


def test_load_history_missing_file_initializes(tmp_path):
    history = load_history(str(tmp_path / "nope.json"))
    assert history == {"schema": HISTORY_SCHEMA, "entries": []}


def test_load_history_repairs_zero_timestamps(tmp_path):
    # Histories written before the mtime repair carry timestamp: 0.0
    # seed entries; loading stamps them from the file's mtime in place.
    path = tmp_path / "history.json"
    history = {"schema": HISTORY_SCHEMA,
               "entries": [fake_entry({"1x1": 12.0}, timestamp=0.0),
                           fake_entry({"1x1": 13.0}, timestamp=456.0)]}
    save_history(str(path), history)
    loaded = load_history(str(path))
    stamps = [entry["timestamp"] for entry in loaded["entries"]]
    assert stamps[0] == pytest.approx(path.stat().st_mtime)
    assert stamps[1] == 456.0  # real timestamps are left alone


def test_backend_suffixes_config_key():
    """Process-backend runs get their own config key (``@process``), so
    they never share a median baseline with GIL-bound thread runs of the
    same geometry; pre-backend entries keep the bare thread key."""
    report = fake_report({"2x2": 18.0})
    report["runs"][0]["backend"] = "process"
    assert entry_from_report(report)["configs"] == {"2x2@process": 18.0}
    report["runs"][0]["backend"] = "thread"
    assert entry_from_report(report)["configs"] == {"2x2": 18.0}
    del report["runs"][0]["backend"]  # legacy entry
    assert entry_from_report(report)["configs"] == {"2x2": 18.0}


def test_append_save_load_round_trip(tmp_path):
    path = str(tmp_path / "nested" / "history.json")
    history = load_history(path)
    append_entry(history, fake_entry({"1x1": 10.0}))
    append_entry(history, fake_entry({"1x1": 11.0}, timestamp=1.0))
    save_history(path, history)
    loaded = load_history(path)
    assert loaded["schema"] == HISTORY_SCHEMA
    assert [e["configs"]["1x1"] for e in loaded["entries"]] == [10.0, 11.0]


def test_no_matching_baseline_passes(tmp_path):
    history = {"schema": HISTORY_SCHEMA, "entries": []}
    comparison = compare_to_history(fake_entry({"1x1": 10.0}), history)
    assert comparison.ok
    assert comparison.baseline_entries == 0
    assert "no matching baseline" in comparison.render()


def test_environment_fingerprint_gates_matching():
    laptop = fake_entry({"1x1": 100.0}, cpu_count=16, usable_cpus=16)
    history = {"schema": HISTORY_SCHEMA, "entries": [laptop]}
    # Same workload but a 2-core CI box: a 10x slower run is NOT a
    # regression, it is a different machine building its own baseline.
    ci_run = fake_entry({"1x1": 10.0}, cpu_count=2, usable_cpus=2)
    assert compare_to_history(ci_run, history).baseline_entries == 0
    # The like-for-like run does match.
    same = fake_entry({"1x1": 95.0}, cpu_count=16, usable_cpus=16)
    assert compare_to_history(same, history).baseline_entries == 1


def test_quick_flag_gates_matching():
    full = fake_entry({"1x1": 10.0}, quick=False)
    history = {"schema": HISTORY_SCHEMA, "entries": [full]}
    quick = fake_entry({"1x1": 5.0}, quick=True)
    assert compare_to_history(quick, history).baseline_entries == 0


def test_regression_detected_beyond_threshold():
    history = {"schema": HISTORY_SCHEMA,
               "entries": [fake_entry({"1x1": 10.0, "4x4": 20.0})]}
    # 4x4 drops 40%: regression.  1x1 improves: fine.
    current = fake_entry({"1x1": 12.0, "4x4": 12.0})
    comparison = compare_to_history(current, history, threshold=0.2)
    assert not comparison.ok
    assert [d.config for d in comparison.regressions] == ["4x4"]
    assert comparison.regressions[0].delta == pytest.approx(-0.4)
    text = comparison.render()
    assert "REGRESSION" in text
    assert "FAIL" in text
    assert "4x4" in text


def test_threshold_is_strict():
    history = {"schema": HISTORY_SCHEMA,
               "entries": [fake_entry({"1x1": 10.0})]}
    exactly = compare_to_history(fake_entry({"1x1": 8.0}), history,
                                 threshold=0.2)
    assert exactly.ok  # -20.0% is at, not beyond, the threshold
    beyond = compare_to_history(fake_entry({"1x1": 7.9}), history,
                                threshold=0.2)
    assert not beyond.ok


def test_baseline_is_median_of_recent_window():
    # One anomalously fast run must not poison the baseline.
    speeds = [10.0, 10.5, 100.0, 10.2, 9.8]
    entries = [fake_entry({"1x1": s}, timestamp=float(i))
               for i, s in enumerate(speeds)]
    history = {"schema": HISTORY_SCHEMA, "entries": entries}
    comparison = compare_to_history(fake_entry({"1x1": 9.5}), history)
    assert comparison.baseline_entries == BASELINE_WINDOW
    assert comparison.deltas[0].baseline == pytest.approx(10.2)  # median
    assert comparison.ok


def test_new_config_without_baseline_passes():
    history = {"schema": HISTORY_SCHEMA,
               "entries": [fake_entry({"1x1": 10.0})]}
    # 8x8 has no baseline sample; only 1x1 is compared.
    comparison = compare_to_history(
        fake_entry({"1x1": 9.9, "8x8": 1.0}), history)
    assert [d.config for d in comparison.deltas] == ["1x1"]
    assert comparison.ok


def test_cli_bench_compare_gates_on_injected_regression(tmp_path, capsys):
    """End-to-end: first run seeds the history (exit 0); doubling the
    recorded baselines makes the very same machine look >20% slower, so
    the second run must exit 1."""
    history_path = str(tmp_path / "history.json")
    out_path = str(tmp_path / "report.json")
    argv = ["bench", "--quick", "--csds", "1", "--steps", "2",
            "--out", out_path, "--compare", "--history", history_path]

    assert main(argv) == 0
    assert "no matching baseline" in capsys.readouterr().out

    history = load_history(history_path)
    assert history["schema"] == HISTORY_SCHEMA
    assert len(history["entries"]) == 1
    for entry in history["entries"]:
        entry["configs"] = {config: value * 2.0
                            for config, value in entry["configs"].items()}
    save_history(history_path, history)

    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "FAIL" in out
    # The failing run is still appended: the trajectory keeps the data
    # point even when the gate trips.
    assert len(load_history(history_path)["entries"]) == 2
