"""Outside-in span tracing of the training path.

The traced run wraps the program's layer functions from here, without
touching the program: each target below is patched on its owning class
or module (and on every ``repro`` module that imported the function by
name), and put back by :meth:`Instrumentation.restore`.  A target that
no longer exists is reported as absent instead of failing the run, so a
refactor that removes a function degrades the table, not the benchmark.

Spans live in memory: name, start, end, parent span, step and thread.
Parents follow the calling thread's stack; a task handed to a worker
pool is parented to the ``map_ordered`` span that submitted it, so work
done on pool threads still rolls up into the step.  The transfer
handler's lazy write-back thread has no such link: its writes overlap
the update pass rather than being part of it, so they are root spans on
their own thread, and the update pass's self time is what it spent
waiting for them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the root span the benchmark opens around each traced step.
STEP = "step"
#: Name of a worker-pool task span (child of its ``map_ordered`` span).
TASK = "runtime.parallel.task"

SPAN, BYTES, MAP, COUNT = "span", "bytes", "map", "count"

#: (span name, module, attribute path, kind).  ``BYTES`` spans also
#: record the byte count the call returns; ``MAP`` wraps a worker-pool
#: fan-out; ``COUNT`` only counts calls (too frequent and too cheap for
#: a span).  One span name may cover several functions.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("nn.forward_backward", "repro.runtime.engine",
     "MixedPrecisionTrainer.forward_backward", SPAN),
    ("nn.precision.has_overflow", "repro.nn.precision", "has_overflow",
     SPAN),
    ("nn.precision.clip_gradients", "repro.nn.precision", "clip_gradients",
     SPAN),
    ("runtime.partition.install_fp16", "repro.runtime.partition",
     "FlatParameterSpace.install_fp16_slice", SPAN),
    ("runtime.partition.gather_grads", "repro.runtime.partition",
     "FlatParameterSpace.gather_grads", SPAN),
    ("runtime.parallel.map_ordered", "repro.runtime.parallel",
     "CSDWorkerPool.map_ordered", MAP),
    ("compression.compress", "repro.compression.error_feedback",
     "compress_with_feedback", SPAN),
    ("csd.handler.update_pass", "repro.csd.handler",
     "TransferHandler.run_update_pass", SPAN),
    ("csd.kernels.updater", "repro.csd.kernels", "UpdaterKernel.run", SPAN),
    ("csd.kernels.decompressor", "repro.csd.kernels",
     "DecompressorKernel.run", SPAN),
    ("csd.device.p2p_read", "repro.csd.device",
     "SmartSSDDevice.p2p_read_into", SPAN),
    ("csd.device.p2p_read", "repro.csd.device", "SmartSSDDevice.p2p_read",
     SPAN),
    ("csd.device.p2p_write", "repro.csd.device",
     "SmartSSDDevice.p2p_write_from", SPAN),
    ("csd.device.p2p_write", "repro.csd.device", "SmartSSDDevice.p2p_write",
     SPAN),
    ("csd.device.host_write", "repro.csd.device",
     "SmartSSDDevice.host_write", SPAN),
    ("csd.device.host_read", "repro.csd.device",
     "SmartSSDDevice.host_read_into", SPAN),
    ("csd.device.host_read", "repro.csd.device", "SmartSSDDevice.host_read",
     SPAN),
    ("storage.blockdev.pread", "repro.storage.blockdev",
     "FileBlockDevice.pread_into", BYTES),
    ("storage.blockdev.pread", "repro.storage.blockdev",
     "FileBlockDevice.pread", BYTES),
    ("storage.blockdev.pwrite", "repro.storage.blockdev",
     "FileBlockDevice.pwrite", BYTES),
    ("storage.raid0.pread", "repro.storage.raid0", "RAID0Volume.pread_into",
     BYTES),
    ("storage.raid0.pread", "repro.storage.raid0", "RAID0Volume.pread",
     BYTES),
    ("storage.raid0.pwrite", "repro.storage.raid0", "RAID0Volume.pwrite",
     BYTES),
    # Every concrete optimizer overrides step(); the subclasses are
    # patched individually (see _resolve).
    ("optim.step", "repro.optim.base", "FlatOptimizer.step", SPAN),
    ("telemetry.health.observe", "repro.telemetry.health",
     "StepHealthMonitor.observe", SPAN),
    ("telemetry.health.evaluate", "repro.telemetry.health",
     "RulesEngine.evaluate", SPAN),
    ("telemetry.flight.record", "repro.telemetry.flight",
     "FlightRecorder.record", COUNT),
)


class Span:
    """One timed call: ``end`` is set when the call returns or raises."""

    __slots__ = ("name", "start", "end", "parent", "step", "thread",
                 "nbytes", "workers")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 step: Optional[int], thread: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step
        self.thread = thread
        self.nbytes = 0
        self.workers = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.step: Optional[int] = None
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: Optional[Span]) -> Span:
        span = Span(name, self.clock(), parent, self.step,
                    threading.current_thread().name)
        self.spans.append(span)
        return span

    def count(self, name: str) -> None:
        with self._count_lock:
            self.counts[name] += 1

    def run_step(self, step: int, fn: Callable[[], object]) -> object:
        """Run one training step under a root :data:`STEP` span."""
        self.step = step
        stack = self.stack()
        span = self.begin(STEP, None)
        stack.append(span)
        try:
            return fn()
        finally:
            stack.pop()
            span.end = self.clock()
            self.step = None


def _span_wrapper(tracer: Tracer, name: str, fn: Callable,
                  measure_bytes: bool) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = tracer.stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            # An override calling its base (AdamW.step -> Adam.step) is
            # one call of the layer, not two.
            return fn(*args, **kwargs)
        span = tracer.begin(name, parent)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            span.end = tracer.clock()
        if measure_bytes:
            span.nbytes = result if isinstance(result, int) else len(result)
        return result
    return traced


def _map_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(pool, task_fn, items):
        stack = tracer.stack()
        span = tracer.begin(name, stack[-1] if stack else None)
        span.workers = pool.workers
        stack.append(span)

        def task(item):
            task_stack = tracer.stack()
            child = tracer.begin(TASK, span)
            task_stack.append(child)
            try:
                return task_fn(item)
            finally:
                task_stack.pop()
                child.end = tracer.clock()

        try:
            return fn(pool, task, items)
        finally:
            stack.pop()
            span.end = tracer.clock()
    return traced


def _count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return counted


def _wrap(tracer: Tracer, name: str, kind: str, fn: Callable) -> Callable:
    if kind == MAP:
        return _map_wrapper(tracer, name, fn)
    if kind == COUNT:
        return _count_wrapper(tracer, name, fn)
    return _span_wrapper(tracer, name, fn, measure_bytes=kind == BYTES)


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _resolve(module_name: str, path: str) -> List[Tuple[object, str]]:
    """Every (owner, attribute) binding that must be patched for a target.

    Raises ``ImportError``/``AttributeError`` when the target is gone.
    """
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        cls = getattr(module, class_name)
        getattr(cls, attr)
        owners = [c for c in _subclasses(cls)
                  if attr in c.__dict__
                  and not getattr(c.__dict__[attr], "__isabstractmethod__",
                                  False)]
        return [(owner, attr) for owner in owners]
    fn = getattr(module, path)
    # ``from .x import fn`` copies the binding: patch every repro module
    # that holds this very function object.
    return [(mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "repro"
                                    or mod_name.startswith("repro."))
            for name, value in list(vars(mod).items()) if value is fn]


class Instrumentation:
    """The set of wrappers for one tracer: resolve once, install/restore
    around each traced step."""

    def __init__(self, tracer: Tracer,
                 targets: Sequence[Tuple[str, str, str, str]] = TARGETS
                 ) -> None:
        #: (owner, attribute, original, wrapper)
        self._patches: List[Tuple[object, str, Callable, Callable]] = []
        present = set()
        for name, module_name, path, kind in targets:
            try:
                bindings = _resolve(module_name, path)
            except (ImportError, AttributeError):
                bindings = []
            for owner, attr in bindings:
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                self._patches.append(
                    (owner, attr, original,
                     _wrap(tracer, name, kind, original)))
                present.add(name)
        #: Span names none of whose functions exist any more.
        self.absent = sorted({target[0] for target in targets} - present)

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def is_restored(self) -> bool:
        return all((owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)) is original
                   for owner, attr, original, _wrapper in self._patches)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(span: Span, children: Sequence[Span]) -> float:
    """Length of the part of ``span`` that the union of children covers."""
    intervals = sorted((max(child.start, span.start),
                        min(child.end, span.end)) for child in children)
    covered = 0.0
    cursor = span.start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span)`` -> its duration minus what its child spans cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    return {id(span): span.duration - _covered(span, children[id(span)])
            for span in spans}


def layer_table(tracer: Tracer, steps: int) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy (inclusive), self time and bytes, each
    per traced step."""
    selfs = self_times(tracer.spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "bytes": 0.0})
    for span in tracer.spans:
        row = table[span.name]
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += selfs[id(span)]
        row["bytes"] += span.nbytes
    for name, calls in tracer.counts.items():
        table[name]["calls"] += calls
    return {name: {key: value / steps for key, value in row.items()}
            for name, row in sorted(table.items())}


def idle_share(tracer: Tracer) -> float:
    """Worker-pool idle share: (workers x map wall - task time) over
    (workers x map wall), summed over every traced fan-out."""
    capacity = 0.0
    busy = 0.0
    maps = {id(span): span for span in tracer.spans
            if span.workers > 0}
    for span in maps.values():
        capacity += span.workers * span.duration
    for span in tracer.spans:
        if span.name == TASK and id(span.parent) in maps:
            busy += span.duration
    return (capacity - busy) / capacity if capacity > 0 else 0.0


def export(tracer: Tracer) -> List[list]:
    """Spans as JSON-ready rows:
    ``[id, name, start, end, parent_id, step, thread, bytes]``."""
    ids = {id(span): index for index, span in enumerate(tracer.spans)}
    origin = tracer.spans[0].start if tracer.spans else 0.0
    return [[ids[id(span)], span.name, span.start - origin,
             span.end - origin,
             ids.get(id(span.parent)) if span.parent is not None else None,
             span.step, span.thread, span.nbytes]
            for span in tracer.spans]
