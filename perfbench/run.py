"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense_update --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of an untraced closed-loop run; ``--trace 1`` runs the same
workload with untraced and traced steps alternating and prints the
per-layer metrics (see ``perfbench/README.md``).  Every run checks that
training is correct: parameters after the warm-up steps must be
bit-identical to a reference engine trained on the same seed and
batches, and every loss must be finite.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when the run was correct.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"

#: Warm-up steps inside ``setup_s``; the correctness check compares the
#: parameters at this step.
WARMUP_STEPS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A timing percentile needs this many samples beyond it.
TAIL_SAMPLES = 10

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("step_s_p50", "s", "lower", 0.25),
    ("step_s_p90", "s", "lower", 0.25),
    ("tokens_per_s", "tokens/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("host_bytes_per_step", "B", "lower", 0.01),
    ("ok_share", "share", "higher", 0.01),
)

#: (name, unit, better) of every per-layer metric (per step unless the
#: README says otherwise).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("nn.forward_backward.busy_s", "s", "lower"),
    ("nn.precision.scan_s", "s", "lower"),
    ("runtime.partition.install_fp16.calls", "count", "lower"),
    ("runtime.partition.install_fp16.busy_s", "s", "lower"),
    ("runtime.partition.gather_grads.busy_s", "s", "lower"),
    ("runtime.parallel.map_ordered.busy_s", "s", "lower"),
    ("runtime.parallel.idle_share", "share", "lower"),
    ("compression.compress.calls", "count", "lower"),
    ("compression.compress.busy_s", "s", "lower"),
    ("csd.handler.update_pass.busy_s", "s", "lower"),
    ("csd.handler.wait_s", "s", "lower"),
    ("csd.kernels.updater.calls", "count", "lower"),
    ("csd.kernels.updater.busy_s", "s", "lower"),
    ("csd.kernels.decompressor.busy_s", "s", "lower"),
    ("csd.device.p2p_read.busy_s", "s", "lower"),
    ("csd.device.p2p_write.busy_s", "s", "lower"),
    ("csd.device.host_write.busy_s", "s", "lower"),
    ("csd.device.host_read.busy_s", "s", "lower"),
    ("csd.device.internal_bytes", "B", "lower"),
    ("storage.blockdev.pread.calls", "count", "lower"),
    ("storage.blockdev.pread.busy_s", "s", "lower"),
    ("storage.blockdev.pread.bytes", "B", "lower"),
    ("storage.blockdev.pwrite.calls", "count", "lower"),
    ("storage.blockdev.pwrite.busy_s", "s", "lower"),
    ("storage.blockdev.pwrite.bytes", "B", "lower"),
    ("storage.raid0.pread.busy_s", "s", "lower"),
    ("storage.raid0.pwrite.busy_s", "s", "lower"),
    ("optim.step.busy_s", "s", "lower"),
    ("memory.arena.allocations", "count", "lower"),
    ("memory.arena.hit_rate", "share", "higher"),
    ("telemetry.health.busy_s", "s", "lower"),
    ("telemetry.flight.records", "count", "lower"),
    ("runtime.checkpoint.save_s", "s", "lower"),
    ("runtime.checkpoint.load_s", "s", "lower"),
    ("faults.injected", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("trace.overhead", "share", "lower"),
)


class SetupError(RuntimeError):
    """The engine could not be built or warmed up: nothing to measure."""


@dataclass
class Loop:
    """Outcome of the closed training loop."""

    step_s: List[float] = field(default_factory=list)
    traced_s: List[float] = field(default_factory=list)
    host_bytes: List[int] = field(default_factory=list)
    internal_bytes: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0


def digest(params) -> str:
    return hashlib.sha256(params.tobytes()).hexdigest()


def tail_percentile(samples: Sequence[float],
                    beyond: int = TAIL_SAMPLES) -> Tuple[float, float]:
    """The highest percentile up to p90 that has at least ``beyond``
    samples above it (nearest rank), as ``(value, quantile)``.  With
    ``beyond`` samples or fewer no percentile qualifies; the maximum is
    returned with quantile 1.0."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 1.0
    index = min(-(-9 * n // 10) - 1, n - 1 - beyond)
    return ordered[index], (index + 1) / n


def environment(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    import numpy as np
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        usable = os.cpu_count() or 1
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "usable_cpus": usable,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


class Harness:
    """Builds engines for one workload and owns their scratch storage."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.batches = workload.make_batches(seed)
        self.workdir = workdir

    def build(self, reference: bool = False):
        from repro.api import create_engine
        from perfbench.workloads import loss_fn
        mode = (self.workload.reference_mode if reference
                else self.workload.mode)
        storage = tempfile.mkdtemp(prefix=f"{mode}-", dir=self.workdir)
        return create_engine(
            mode, self.workload.make_model(self.seed), loss_fn, storage,
            config=self.workload.training_config(reference=reference))

    def warmed_up(self, reference: bool = False):
        """A fresh engine after the warm-up steps, and its set-up time."""
        begin = time.perf_counter()
        try:
            engine = self.build(reference)
        except Exception as exc:
            raise SetupError(f"engine construction failed: {exc}") from exc
        try:
            for index in range(WARMUP_STEPS):
                result = engine.train_step(*self.batches[index])
                if not math.isfinite(result.loss):
                    raise SetupError(
                        f"non-finite loss {result.loss} in warm-up step "
                        f"{index}")
        except Exception as exc:
            engine.close()
            if isinstance(exc, SetupError):
                raise
            raise SetupError(f"warm-up step failed: {exc}") from exc
        return engine, time.perf_counter() - begin

    def reference_digest(self) -> str:
        engine, _ = self.warmed_up(reference=True)
        try:
            return digest(engine.space.gather_params())
        finally:
            engine.close()

    def step(self, engine, index: int, loop: Loop, wrap=None) -> bool:
        """One timed training step; False when the loop must stop."""
        batch = self.batches[index % len(self.batches)]
        loop.attempted += 1
        begin = time.perf_counter()
        try:
            if wrap is None:
                result = engine.train_step(*batch)
            else:
                result = wrap(lambda: engine.train_step(*batch))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            loop.failed += 1
            return False
        elapsed = time.perf_counter() - begin
        (loop.step_s if wrap is None else loop.traced_s).append(elapsed)
        loop.host_bytes.append(result.traffic.host_reads
                               + result.traffic.host_writes)
        if wrap is not None:
            loop.internal_bytes.append(result.traffic.internal_reads
                                       + result.traffic.internal_writes)
        if not math.isfinite(result.loss):
            loop.failed += 1
        return True


def check(harness: Harness, digests: Sequence[str], final_finite: bool
          ) -> List[str]:
    """Correctness problems of a run (empty when it is correct)."""
    problems = []
    expected = harness.reference_digest()
    if any(d != expected for d in digests):
        problems.append("parameters after warm-up differ from the "
                        f"{harness.workload.reference_mode} reference")
    if not final_finite:
        problems.append("trained parameters are not finite")
    return problems


def run_untraced(harness: Harness, seconds: float
                 ) -> Tuple[Dict[str, float], Loop, List[str], List[str]]:
    """Returns (metrics, loop, correctness problems, notes)."""
    setup_s: List[float] = []
    digests: List[str] = []
    engine = None
    loop = Loop()
    try:
        for _ in range(SETUP_REPS):
            if engine is not None:
                engine.close()
            engine, elapsed = harness.warmed_up()
            setup_s.append(elapsed)
            digests.append(digest(engine.space.gather_params()))
        begin = time.perf_counter()
        deadline = begin + seconds
        index = WARMUP_STEPS
        while harness.step(engine, index, loop):
            index += 1
            if time.perf_counter() >= deadline:
                break
        loop.wall_s = time.perf_counter() - begin
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import numpy as np
        final_finite = bool(np.isfinite(engine.space.gather_params()).all())
    finally:
        if engine is not None:
            engine.close()
    problems = check(harness, digests, final_finite)
    times = loop.step_s or [float("nan")]
    p90, quantile = tail_percentile(times)
    notes = [f"step_s_p90 is the p{100 * quantile:.1f} of "
             f"{len(loop.step_s)} timed steps"]
    metrics = {
        "step_s_p50": statistics.median(times),
        "step_s_p90": p90,
        "tokens_per_s": (harness.workload.tokens_per_step
                         * len(loop.step_s) / loop.wall_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "host_bytes_per_step": float(statistics.median(
            loop.host_bytes or [0])),
    }
    return metrics, loop, problems, notes


def run_traced(harness: Harness, seconds: float, out_stem: Path
               ) -> Tuple[Dict[str, float], Loop, List[str], List[str]]:
    """Returns (metrics, loop, correctness problems, notes)."""
    import numpy as np
    from repro import aggregate_arena_stats, load_checkpoint, save_checkpoint
    from perfbench import tracing

    notes: List[str] = []
    engine, _ = harness.warmed_up()
    warm_digest = digest(engine.space.gather_params())
    tracer = tracing.Tracer()
    loop = Loop()
    try:
        instrumentation = tracing.Instrumentation(tracer)
        arena_before = aggregate_arena_stats()
        begin = time.perf_counter()
        deadline = begin + seconds
        index = WARMUP_STEPS
        while True:
            # Untraced and traced steps alternate, so drift in the
            # machine's speed hits both halves of trace.overhead alike.
            traced = index % 2 == 1
            if traced:
                with instrumentation:
                    ok = harness.step(
                        engine, index, loop,
                        wrap=lambda fn, i=index: tracer.run_step(i, fn))
            else:
                ok = harness.step(engine, index, loop)
            index += 1
            if not ok or (time.perf_counter() >= deadline
                          and loop.traced_s and loop.step_s):
                break
        loop.wall_s = time.perf_counter() - begin
        arena_after = aggregate_arena_stats()
        faults = engine.fault_stats()
        params = engine.space.gather_params()
        checkpoint = str(harness.workdir / "checkpoint.npz")
        start = time.perf_counter()
        save_checkpoint(engine, checkpoint)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        load_checkpoint(engine, checkpoint)
        load_s = time.perf_counter() - start
        restored = digest(engine.space.gather_params()) == digest(params)
        final_finite = bool(np.isfinite(params).all())
    finally:
        engine.close()
    problems = check(harness, [warm_digest], final_finite)
    if not restored:
        problems.append("checkpoint round trip changed the parameters")
    if instrumentation.absent:
        notes.append("absent: " + ", ".join(instrumentation.absent))

    steps = max(len(loop.traced_s), 1)
    table = tracing.layer_table(tracer, steps)

    def row(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    metrics: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "bytes"):
            metrics[name] = row(span, key)
    checkouts = arena_after.checkouts - arena_before.checkouts
    allocations = arena_after.allocations - arena_before.allocations
    all_steps = max(len(loop.step_s) + len(loop.traced_s), 1)
    untraced = statistics.median(loop.step_s or [float("nan")])
    metrics.update({
        "nn.forward_backward.busy_s": row("nn.forward_backward", "self_s"),
        "nn.precision.scan_s": (row("nn.precision.has_overflow", "busy_s")
                                + row("nn.precision.clip_gradients",
                                      "busy_s")),
        "runtime.parallel.idle_share": tracing.idle_share(tracer),
        "csd.handler.wait_s": row("csd.handler.update_pass", "self_s"),
        "csd.device.internal_bytes": float(statistics.median(
            loop.internal_bytes or [0])),
        "memory.arena.allocations": allocations / all_steps,
        "memory.arena.hit_rate": (1.0 - allocations / checkouts
                                  if checkouts else 1.0),
        "telemetry.health.busy_s": (row("telemetry.health.observe",
                                        "busy_s")
                                    + row("telemetry.health.evaluate",
                                          "busy_s")),
        "telemetry.flight.records": row("telemetry.flight.record", "calls"),
        "runtime.checkpoint.save_s": save_s,
        "runtime.checkpoint.load_s": load_s,
        "faults.injected": float(sum(faults["injected"].values())),
        "faults.retries": float(faults["retries"]),
        "trace.overhead": (statistics.median(loop.traced_s
                                             or [float("nan")])
                           / untraced - 1.0),
    })
    notes.append(f"{len(loop.traced_s)} traced and {len(loop.step_s)} "
                 f"untraced steps")
    print_layer_table(table)
    with gzip.open(f"{out_stem}-spans.json.gz", "wt") as handle:
        json.dump({"absent": instrumentation.absent,
                   "columns": ["id", "name", "start", "end", "parent",
                               "step", "thread", "bytes"],
                   "spans": tracing.export(tracer)}, handle)
    return metrics, loop, problems, notes


def print_layer_table(table: Dict[str, Dict[str, float]]) -> None:
    print(f"{'span (per traced step)':<34} {'calls':>9} {'busy_ms':>10} "
          f"{'self_ms':>10} {'bytes':>12}")
    for name, row in table.items():
        print(f"{name:<34} {row['calls']:>9.2f} {1e3 * row['busy_s']:>10.3f} "
              f"{1e3 * row['self_s']:>10.3f} {row['bytes']:>12.0f}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    env = environment(workload.name, args.seed, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        harness = Harness(workload, args.seed, workdir)
        try:
            if args.trace:
                metrics, loop, problems, notes = run_traced(
                    harness, args.seconds, out_stem)
            else:
                metrics, loop, problems, notes = run_untraced(
                    harness, args.seconds)
        except SetupError as exc:
            metrics, loop, problems, notes = (
                {}, Loop(attempted=1, failed=1), [str(exc)], [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if loop.failed:
        problems.append(f"{loop.failed} of {loop.attempted} steps raised "
                        "or gave a non-finite loss")
    correct = not problems
    # An incorrect run counts every step as failed.
    failed = loop.attempted if problems else 0
    attempted = max(loop.attempted, 1)
    env["timed_steps"] = len(loop.step_s) + len(loop.traced_s)
    if not args.trace:
        metrics["ok_share"] = 1.0 - failed / attempted
    units = {name: unit for name, unit, *_ in (END_TO_END if not args.trace
                                               else PER_LAYER)}
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if math.isfinite(metrics.get(name, math.nan))},
    }
    for problem in problems:
        print(f"perfbench: {workload.name}: INCORRECT: {problem}",
              file=sys.stderr)
    for note in notes:
        print(f"note: {note}")
    print(f"failed_share: {failed / attempted}")
    for name, entry in result["metrics"].items():
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    with open(f"{out_stem}-result.json", "w") as handle:
        json.dump({"env": env, "notes": notes, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
