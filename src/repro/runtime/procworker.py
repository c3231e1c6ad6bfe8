"""The process host: shard executors in worker processes over shared memory.

The thread pool in :mod:`repro.runtime.parallel` gives the Fig. 11
fan-out its structure, but CPython's GIL caps how much of the per-device
work (Top-K ``argpartition``, optimizer ufuncs, int8 quantization) truly
overlaps.  This module hosts each CSD's
:class:`~repro.runtime.shard.ShardExecutor` in a persistent worker
*process* instead:

* every shard gets a :class:`ShardChannel` — a set of fixed regions
  (gradients down, updated masters up, optimizer-state rows, the
  compressed stream, the error-feedback residual) checked out of one
  :class:`~repro.memory.SharedMemoryArena`, so both sides address the
  same physical pages through ndarray views;
* the task pipe carries **descriptors and scalars only** — region
  offsets at init, ``(step_count, lr)`` per update, the executor's
  scalar reports and fault snapshots back.
  :func:`repro.runtime.parallel._check_payload` enforces that no ndarray
  ever crosses the pipe;
* the child's executor owns everything device-shaped, with its *own*
  :class:`~repro.faults.FaultInjector` built from the same plan — fault
  streams are seeded per device id, so the injected sequence is
  identical to thread mode and chaos runs stay bit-exact;
* telemetry hops the boundary by forwarding: each task response drains
  the child's span tracer and flight recorder (absolute timestamps,
  rebased on ingest), so parent dumps interleave child fault events with
  host-side alerts in one ordered timeline.

The executor is the same class the inline host runs, so this module
holds transport only: no update, upstream or demotion arithmetic.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..compression.topk import CompressedGradient, keep_count
from ..errors import TrainingError
from ..memory import SEGMENT_ALIGN, SharedMemoryArena, SharedSegment, \
    size_class
from ..optim import make_optimizer
from ..telemetry import flight
from ..telemetry.flight import DEFAULT_CAPACITY, FlightRecorder
from .engine import make_fault_injector
from .host_offload import update_block
from .parallel import ProcessCSDWorkerPool
from .partition import Shard
from .shard import Publish, ShardExecutor


# ----------------------------------------------------------------------
# the shard channel: one shard's shared-memory regions
# ----------------------------------------------------------------------

class ShardChannel:
    """One CSD shard's fixed shared-memory regions.

    All tensor traffic between parent and child flows through these
    views; the pipe only ever names them.  Regions are keyed like the
    checkpoint arrays and double up across phases — ``master_params``
    carries the initial masters down at init, the updated masters up
    each step, and the salvaged masters after a demotion — which keeps
    the footprint at a handful of shard-sized rows per device.
    """

    def __init__(self, arena: SharedMemoryArena, shard: Shard, config,
                 state_names: Sequence[str]) -> None:
        count = shard.count
        self.regions: Dict[str, np.ndarray] = {
            "grads": arena.acquire(count, np.float32),
            "master_params": arena.acquire(count, np.float32),
        }
        for name in state_names:
            self.regions[name] = arena.acquire(count, np.float32)
        if config.compression_ratio is not None:
            kept = keep_count(count, config.compression_ratio)
            self.regions["comp_indices"] = arena.acquire(kept, np.int32)
            self.regions["comp_values"] = arena.acquire(kept, np.float32)
            if config.error_feedback:
                self.regions["ef_residual"] = arena.acquire(count,
                                                            np.float32)

    def describe(self, arena: SharedMemoryArena) -> Dict[str, Tuple]:
        """Picklable ``name -> (offset, count, dtype)`` region table."""
        return {name: (arena.offset_of(view), int(view.size),
                       view.dtype.str)
                for name, view in self.regions.items()}


def _channel_capacity(shards: Sequence[Shard], config,
                      num_states: int) -> int:
    """Segment bytes needed for every shard's channel, with slack for
    the arena's power-of-two size classes and per-block alignment."""
    total = 0
    for shard in shards:
        rows = [(shard.count, 4), (shard.count, 4)]  # grads + masters
        rows += [(shard.count, 4)] * num_states
        if config.compression_ratio is not None:
            kept = keep_count(shard.count, config.compression_ratio)
            rows += [(kept, 4), (kept, 4)]
            if config.error_feedback:
                rows.append((shard.count, 4))
        for elements, itemsize in rows:
            total += size_class(elements) * itemsize + 2 * SEGMENT_ALIGN
    return total


# ----------------------------------------------------------------------
# child-process side
# ----------------------------------------------------------------------

# Per-process worker registry. Sticky routing in ProcessCSDWorkerPool
# guarantees shard index j always lands on worker j % workers, so each
# child process only ever sees its own indexes.
_STATE: Dict[str, object] = {
    "executors": {},      # index -> (ShardExecutor, channel views)
    "segments": {},       # segment name -> attached SharedSegment
    "flight_cursor": 0,
    "flight_capacity": DEFAULT_CAPACITY,
    "reset": False,
}


def _attach_segment(descriptor: Dict[str, object]) -> SharedSegment:
    segments: Dict[str, SharedSegment] = _STATE["segments"]
    name = str(descriptor["name"])
    segment = segments.get(name)
    if segment is None:
        segment = SharedSegment.attach(descriptor)
        segments[name] = segment
    return segment


def _views(layout: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Attach a layout's segment and view each named region."""
    segment = _attach_segment(layout["segment"])
    return {name: segment.view(int(offset), int(count), dtype)
            for name, (offset, count, dtype) in layout["regions"].items()}


def _sync_telemetry(task: Dict[str, object]) -> None:
    """Match this child's telemetry globals to the parent's, per task.

    Forked children inherit the parent's installed recorder/session
    *objects*; the first task sheds them (their contents belong to the
    parent) and from then on the child runs its own, created and torn
    down as the parent's flags flip.
    """
    if not _STATE["reset"]:
        telemetry.disable()
        flight.install(None)
        _STATE["reset"] = True
    spans_on = bool(task.get("spans"))
    if spans_on and not telemetry.enabled():
        telemetry.enable()
    elif not spans_on and telemetry.enabled():
        telemetry.disable()
    flight_on = bool(task.get("flight"))
    recorder = flight.active_recorder()
    if flight_on and recorder is None:
        flight.install(FlightRecorder(
            capacity_per_worker=int(_STATE["flight_capacity"])))
        _STATE["flight_cursor"] = 0
    elif not flight_on and recorder is not None:
        flight.install(None)


def _drain_telemetry(resp: Dict[str, object]) -> None:
    """Attach this child's new events and spans to a task response."""
    recorder = flight.active_recorder()
    if recorder is not None:
        cursor, events = recorder.export_since(
            int(_STATE["flight_cursor"]))
        _STATE["flight_cursor"] = cursor
        if events:
            resp["events"] = events
    session = telemetry.active()
    if session is not None:
        spans = session.tracer.export_drain()
        if spans:
            resp["spans"] = spans


def _discard(_global_start: int, _values: np.ndarray) -> None:
    """The child's upstream sink: the parent installs from the channel."""


def _init_executor(task: Dict[str, object]) -> ShardExecutor:
    views = _views(task)
    config = task["config"]
    executor = ShardExecutor(
        int(task["index"]), str(task["storage_dir"]), task["shard"],
        config, task["state_names"], int(task["states_per_param"]),
        make_fault_injector(config), views["master_params"], _discard,
        upstream=views["master_params"])
    _STATE["executors"][executor.index] = (executor, views)
    return executor


def _run_op(executor: ShardExecutor, views: Dict[str, np.ndarray],
            task: Dict[str, object]) -> Dict[str, object]:
    """Run one executor operation against the channel views."""
    op = str(task["op"])
    if op == "offload":
        resp = executor.offload(views["grads"])
    elif op == "update":
        resp = executor.update(views["grads"], int(task["step_count"]),
                               float(task["lr"]))
    elif op == "step":
        resp = executor.step(views["grads"], int(task["step_count"]),
                             float(task["lr"]), bool(task["do_update"]))
    elif op == "read_state":
        for name, array in executor.read_state().items():
            np.copyto(views[name], array)
        return {"index": executor.index, "valid": not executor.demoted}
    elif op == "write_state":
        names = ("master_params", *executor.state_names)
        if task.get("residual"):
            names += ("ef_residual",)
        executor.write_state({name: views[name] for name in names})
        return {"index": executor.index}
    elif op == "close":
        executor.close(bool(task.get("abandon")))
        return {"index": executor.index}
    else:
        raise TrainingError(f"unknown shard task op {op!r}")
    # Publish what the parent's host-CPU path may need: the step's
    # compressed stream, and the salvage after a demotion.
    if op != "update" and executor.compressed is not None:
        np.copyto(views["comp_indices"], executor.compressed.indices)
        np.copyto(views["comp_values"], executor.compressed.values)
    if resp["demoted_now"]:
        masters, states = executor.salvaged
        executor.salvaged = None
        np.copyto(views["master_params"], masters)
        for name, array in states.items():
            np.copyto(views[name], array)
    return resp


def _shard_task(task: Dict[str, object]) -> Dict[str, object]:
    """The single task entry point the pool ships to child processes."""
    _sync_telemetry(task)
    index = int(task["index"])
    if task["op"] == "init":
        _STATE["flight_capacity"] = int(
            task.get("flight_capacity", DEFAULT_CAPACITY))
        executor = _init_executor(task)
        resp: Dict[str, object] = {"index": index}
    else:
        entry = _STATE["executors"].get(index)
        if entry is None:
            raise TrainingError(
                f"no shard executor for index {index} in this process "
                f"(init task missing or routed elsewhere)")
        executor, views = entry
        resp = _run_op(executor, views, task)
    resp["worker"] = threading.current_thread().name
    resp["faults"] = (executor.faults.stats.snapshot()
                      if executor.faults is not None else None)
    _drain_telemetry(resp)
    return resp


# ----------------------------------------------------------------------
# host-offload blocks (the ZeRO-Offload engine's process backend)
# ----------------------------------------------------------------------

def _host_context(layout: Dict[str, object]) -> Dict[str, object]:
    """This process's cached views + optimizer for one host layout.

    The layout dict is constant for an engine's lifetime, so the child
    resolves it once (attach segment, build views, construct the
    optimizer) and every later block task is just a slice-and-update.
    """
    contexts: Dict[str, Dict[str, object]] = _STATE.setdefault(
        "host_contexts", {})
    key = str(layout["segment"]["name"])
    context = contexts.get(key)
    if context is None:
        views = _views(layout)
        context = {
            "masters": views.pop("masters"),
            "grads": views.pop("grads"),
            "states": views,
            "optimizer": make_optimizer(str(layout["optimizer"]),
                                        **layout["optimizer_kwargs"]),
        }
        contexts[key] = context
    return context


def _host_update_task(task: Dict[str, object]) -> Dict[str, object]:
    """Update one flat block of host-resident state, in place in shm."""
    _sync_telemetry(task)
    context = _host_context(task["layout"])
    optimizer = context["optimizer"]
    optimizer.lr = float(task["lr"])
    start, stop = int(task["start"]), int(task["stop"])
    update_block(optimizer, context["masters"], context["grads"],
                 context["states"], start, stop, int(task["step"]))
    resp: Dict[str, object] = {"start": start,
                               "worker": threading.current_thread().name}
    _drain_telemetry(resp)
    return resp


def ingest_response(resp: Dict[str, object]) -> None:
    """Fold a child response's forwarded telemetry into this process.

    Shared by the shard coordinator and the host-offload engine: events
    land in the installed flight recorder under the child's worker
    label, spans in the active tracer (rebased to its epoch).
    """
    events = resp.pop("events", None)
    recorder = flight.active_recorder()
    if recorder is not None and events:
        recorder.ingest(str(resp.get("worker", "csd-proc")), events)
    spans = resp.pop("spans", None)
    session = telemetry.active()
    if session is not None and spans:
        session.tracer.ingest(spans)


# ----------------------------------------------------------------------
# parent-process side
# ----------------------------------------------------------------------

class ProcessShardCoordinator:
    """Parent-side host for executors living in worker processes.

    Owns the shared arena, one :class:`ShardChannel` per shard, and the
    :class:`~repro.runtime.parallel.ProcessCSDWorkerPool`.  Every method
    that runs tasks also ingests the children's forwarded telemetry
    (events, spans, fault snapshots) *before* returning, so callers can
    record incidents knowing the triggering child events are already in
    the parent's flight ring.  Same interface as
    :class:`~repro.runtime.shard.InlineShardHost`.
    """

    def __init__(self, storage_dir: str, shards: Sequence[Shard], config,
                 state_names: Sequence[str], states_per_param: int,
                 masters: np.ndarray, publish: Publish,
                 workers: int) -> None:
        self.shards = list(shards)
        self.state_names = list(state_names)
        self.publish = publish
        self._fault_snapshots: Dict[int, Dict[str, object]] = {}
        self._closed = False
        self.pool: Optional[ProcessCSDWorkerPool] = None
        self.arena = SharedMemoryArena(
            _channel_capacity(self.shards, config, len(self.state_names)),
            name="csd-shards")
        try:
            self.channels = [
                ShardChannel(self.arena, shard, config, self.state_names)
                for shard in self.shards]
            for shard, channel in zip(self.shards, self.channels):
                np.copyto(channel.regions["master_params"],
                          masters[shard.start:shard.end])
            self.pool = ProcessCSDWorkerPool(workers)
            descriptor = self.arena.segment.descriptor()
            inits = [{
                "op": "init", "index": index,
                "storage_dir": storage_dir, "shard": shard,
                "config": config,
                "state_names": tuple(self.state_names),
                "states_per_param": int(states_per_param),
                "segment": descriptor,
                "regions": channel.describe(self.arena),
                "flight_capacity": int(config.flight_capacity),
            } for index, (shard, channel) in enumerate(
                zip(self.shards, self.channels))]
            for resp in self.pool.map_ordered(_shard_task, inits):
                self._ingest(resp)
        except BaseException:
            self.close(abandon=True)
            raise

    @property
    def devices(self) -> List:
        """Empty: the devices live in the worker processes."""
        return []

    # ------------------------------------------------------------------
    def _run(self, op: str, **extra: object) -> List[Dict[str, object]]:
        tasks = [{
            "op": op, "index": index,
            "spans": telemetry.enabled(),
            "flight": flight.active_recorder() is not None,
            **extra,
        } for index in range(len(self.shards))]
        responses = self.pool.map_ordered(_shard_task, tasks)
        for resp in responses:
            self._ingest(resp)
        return responses

    def _ingest(self, resp: Dict[str, object]) -> None:
        """Fold one child response's telemetry into the parent's."""
        ingest_response(resp)
        faults = resp.pop("faults", None)
        if faults:
            self._fault_snapshots[int(resp["index"])] = faults

    def _send_grads(self, flat_grads: np.ndarray) -> None:
        for shard, channel in zip(self.shards, self.channels):
            np.copyto(channel.regions["grads"],
                      flat_grads[shard.start:shard.end])

    def _install_updated(self, reports: List[Dict[str, object]]
                         ) -> List[Dict[str, object]]:
        """Publish each updated shard's final masters from its channel.

        Only the end-of-step values matter, so one whole-shard install
        is bit-identical to the inline host's per-subgroup installs.
        """
        for shard, channel, report in zip(self.shards, self.channels,
                                          reports):
            if report["updated"]:
                self.publish(shard.start, channel.regions["master_params"])
        return reports

    # ------------------------------------------------------------------
    # per-step protocol
    # ------------------------------------------------------------------
    def offload(self, flat_grads: np.ndarray) -> List[Dict[str, object]]:
        """Gradients down through the channels, then each child
        compresses (if configured) and writes to its device."""
        self._send_grads(flat_grads)
        return self._run("offload")

    def update(self, flat_grads: np.ndarray, step_count: int,
               lr: float) -> List[Dict[str, object]]:
        """Near-storage updates; the gradients are already in the
        channels from :meth:`offload`."""
        return self._install_updated(self._run(
            "update", step_count=int(step_count), lr=float(lr)))

    def step(self, flat_grads: np.ndarray, step_count: int, lr: float,
             do_update: bool) -> List[Dict[str, object]]:
        """Interleaved schedule: one fused offload+update task per shard,
        which the pool pipelines across the worker processes."""
        self._send_grads(flat_grads)
        return self._install_updated(self._run(
            "step", step_count=int(step_count), lr=float(lr),
            do_update=bool(do_update)))

    def compressed(self, index: int) -> Optional[CompressedGradient]:
        """This step's compressed stream for one shard (host-CPU path)."""
        regions = self.channels[index].regions
        if "comp_indices" not in regions:
            return None
        return CompressedGradient(indices=regions["comp_indices"],
                                  values=regions["comp_values"],
                                  original_size=self.shards[index].count)

    def salvage(self, index: int
                ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Private copies of a demoted shard's salvaged masters/states."""
        regions = self.channels[index].regions
        return regions["master_params"].copy(), {
            name: regions[name].copy() for name in self.state_names}

    def merge_fault_stats(self, stats: Dict[str, object]) -> None:
        """Add the children's cumulative fault accounting into ``stats``."""
        injected = dict(stats.get("injected") or {})
        for snap in self._fault_snapshots.values():
            for kind, count in (snap.get("injected") or {}).items():
                injected[kind] = injected.get(kind, 0) + int(count)
            stats["retries"] = int(stats["retries"]) + int(snap["retries"])
            stats["retries_exhausted"] = (int(stats["retries_exhausted"])
                                          + int(snap["retries_exhausted"]))
            stats["backoff_seconds"] = (float(stats["backoff_seconds"])
                                        + float(snap["backoff_seconds"]))
            stats["latency_seconds"] = (float(stats["latency_seconds"])
                                        + float(snap["latency_seconds"]))
            stats["dropouts"] = (int(stats["dropouts"])
                                 + int(snap["dropouts"]))
        stats["injected"] = injected

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def read_state(self) -> List[Dict[str, np.ndarray]]:
        """Each shard's masters/states (absent once demoted) and EF
        residual, as channel views."""
        names = ("master_params", *self.state_names)
        per_shard = []
        for channel, report in zip(self.channels, self._run("read_state")):
            regions = channel.regions
            arrays = {name: regions[name] for name in names} \
                if report["valid"] else {}
            if "ef_residual" in regions:
                arrays["ef_residual"] = regions["ef_residual"]
            per_shard.append(arrays)
        return per_shard

    def write_state(self, per_shard: Sequence[Dict[str, np.ndarray]]
                    ) -> None:
        """Hand checkpoint arrays to the children through the channels."""
        residual = False
        for channel, arrays in zip(self.channels, per_shard):
            for name, array in arrays.items():
                if name in channel.regions:
                    np.copyto(channel.regions[name], array)
            residual = "ef_residual" in arrays \
                and "ef_residual" in channel.regions
        self._run("write_state", residual=residual)

    # ------------------------------------------------------------------
    def close(self, abandon: bool = False) -> None:
        """Tear down workers, pool and the shared arena. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.pool is not None:
            try:
                self.pool.map_ordered(_shard_task, [
                    {"op": "close", "index": index, "abandon": abandon}
                    for index in range(len(self.shards))])
            except Exception:
                pass  # teardown must not mask the original error
            self.pool.close()
        self.arena.close()


__all__ = [
    "ProcessShardCoordinator",
    "ShardChannel",
    "ingest_response",
]
