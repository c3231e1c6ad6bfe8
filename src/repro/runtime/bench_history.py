"""Bench trajectory: append wall-clock results, detect regressions.

``python -m repro bench --compare`` turns single benchmark reports
(:func:`~repro.runtime.bench.run_parallel_bench`) into a *history* —
one JSON document under ``benchmarks/results/`` accumulating an entry
per run — and gates on throughput: if the current run's steps/s falls
more than a threshold below the baseline for any configuration, the
comparison fails with a readable delta report.

Wall-clock numbers are only comparable on like hardware, so baselines
are matched on an environment fingerprint (cpu_count, usable_cpus) plus
the workload shape and the quick/full flag.  A run on a machine with no
matching history records a new baseline and passes — CI machines build
their own trajectory without poisoning a laptop's.

The baseline per configuration is the **median** of the last
:data:`BASELINE_WINDOW` matching entries, so one anomalously fast run
does not turn every later run into a "regression".
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Schema marker of the history document.
HISTORY_SCHEMA = "smart-infinity/bench-history/v1"

#: How many recent matching entries feed the per-config median baseline.
BASELINE_WINDOW = 5

#: Default relative throughput drop that fails the gate (20%).
DEFAULT_THRESHOLD = 0.2

#: Workload fields that define "the same benchmark" across runs.
_WORKLOAD_SHAPE_KEYS = ("dim", "num_layers", "vocab_size", "seq_len",
                        "batch", "subgroup_elements",
                        "kernel_chunk_elements", "steps")


def _config_key(run: Dict[str, object]) -> str:
    """``csds x workers``, suffixed ``@backend`` off the thread default.

    Thread and process runs of the same geometry are different
    benchmarks (one is GIL-bound, one is not), so they must never share
    a baseline; runs predating the backend field are thread runs.  The
    same goes for the execution pipeline: an interleaved run
    (``+interleaved``) or a spilled-activation run (``~spill``) must
    never feed a phased/recompute median — runs predating those fields
    are phased/recompute runs.
    """
    key = f"{run['num_csds']}x{run['workers']}"
    backend = run.get("backend", "thread")
    if backend != "thread":
        key += f"@{backend}"
    schedule = run.get("schedule", "phased")
    if schedule != "phased":
        key += f"+{schedule}"
    activation = run.get("activation_offload", "recompute")
    if activation != "recompute":
        key += f"~{activation}"
    return key


def entry_from_report(report: Dict[str, object],
                      timestamp: Optional[float] = None
                      ) -> Dict[str, object]:
    """One history entry distilled from a full bench report."""
    workload = report.get("workload", {})
    return {
        "timestamp": time.time() if timestamp is None else timestamp,
        "quick": bool(report.get("quick", False)),
        "environment": dict(report.get("environment", {})),
        "workload": {key: workload.get(key)
                     for key in _WORKLOAD_SHAPE_KEYS},
        "configs": {
            _config_key(run): run["steps_per_second"]
            for run in report.get("runs", [])
        },
    }


def load_history(path: str) -> Dict[str, object]:
    """Load (or initialize) a history document.

    Entries carrying the old ``timestamp: 0.0`` placeholder (the epoch,
    i.e. obviously wrong) are re-stamped from the history file's mtime —
    the best available bound on when that run actually happened.
    """
    if not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "entries": []}
    with open(path) as handle:
        document = json.load(handle)
    if "entries" in document:
        _repair_timestamps(document, path)
        return document
    return {"schema": HISTORY_SCHEMA, "entries": []}


def _repair_timestamps(history: Dict[str, object], path: str) -> None:
    """Stamp placeholder (missing/zero) entry timestamps from ``path``."""
    for entry in history.get("entries", []):
        if not entry.get("timestamp"):
            entry["timestamp"] = os.path.getmtime(path)


def append_entry(history: Dict[str, object],
                 entry: Dict[str, object]) -> None:
    history.setdefault("entries", []).append(entry)
    history["schema"] = HISTORY_SCHEMA


def save_history(path: str, history: Dict[str, object]) -> str:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _matches(entry: Dict[str, object],
             candidate: Dict[str, object]) -> bool:
    """Same benchmark on like hardware: quick flag, workload shape,
    and environment fingerprint (core counts, active schedule and
    activation mode) must all agree."""
    if bool(candidate.get("quick")) != bool(entry.get("quick")):
        return False
    if candidate.get("workload") != entry.get("workload"):
        return False
    env, ref = candidate.get("environment", {}), entry.get(
        "environment", {})
    return (env.get("cpu_count") == ref.get("cpu_count")
            and env.get("usable_cpus") == ref.get("usable_cpus")
            and env.get("schedule", "phased")
            == ref.get("schedule", "phased")
            and env.get("activation_offload", "recompute")
            == ref.get("activation_offload", "recompute"))


@dataclass
class ConfigDelta:
    """Baseline-vs-current throughput for one (csds x workers) config."""

    config: str
    baseline: float
    current: float

    @property
    def delta(self) -> float:
        if self.baseline <= 0:
            return 0.0
        return (self.current - self.baseline) / self.baseline


@dataclass
class Comparison:
    """Outcome of gating one bench entry against the history."""

    baseline_entries: int
    threshold: float
    deltas: List[ConfigDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[ConfigDelta]:
        return [d for d in self.deltas if d.delta < -self.threshold]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        if self.baseline_entries == 0:
            return ("bench compare: no matching baseline in history "
                    "(different machine/workload) — recording a new "
                    "baseline, gate passes")
        lines = [f"bench compare vs median of last "
                 f"{self.baseline_entries} matching run(s), "
                 f"threshold -{self.threshold:.0%}:"]
        lines.append(f"  {'config':>8} {'baseline':>12} {'current':>12} "
                     f"{'delta':>8}")
        for d in sorted(self.deltas, key=lambda d: d.config):
            flag = "  REGRESSION" if d.delta < -self.threshold else ""
            lines.append(f"  {d.config:>8} {d.baseline:>10.2f}/s "
                         f"{d.current:>10.2f}/s {d.delta:>+8.1%}{flag}")
        if self.regressions:
            worst = min(self.regressions, key=lambda d: d.delta)
            lines.append(
                f"  FAIL: {len(self.regressions)} config(s) regressed "
                f"beyond {self.threshold:.0%} (worst: {worst.config} at "
                f"{worst.delta:+.1%})")
        else:
            lines.append("  OK: no configuration regressed beyond the "
                         "threshold")
        return "\n".join(lines)


def compare_to_history(entry: Dict[str, object],
                       history: Dict[str, object],
                       threshold: float = DEFAULT_THRESHOLD
                       ) -> Comparison:
    """Gate ``entry`` against the matching tail of ``history``.

    Call *before* appending the entry, or the run compares against
    itself.  Configurations without a baseline (new CSD counts) pass.
    """
    matching = [candidate for candidate in history.get("entries", [])
                if _matches(entry, candidate)]
    window = matching[-BASELINE_WINDOW:]
    comparison = Comparison(baseline_entries=len(window),
                            threshold=threshold)
    if not window:
        return comparison
    for config, current in sorted(entry.get("configs", {}).items()):
        samples = [candidate["configs"][config] for candidate in window
                   if config in candidate.get("configs", {})]
        if not samples:
            continue
        comparison.deltas.append(ConfigDelta(
            config=config, baseline=statistics.median(samples),
            current=float(current)))
    return comparison
