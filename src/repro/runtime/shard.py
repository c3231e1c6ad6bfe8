"""One CSD's shard executor, and the in-process host that runs it.

The paper's unit of work is one CSD updating its own shard through its
transfer handler (SmartUpdate / SU+O, §IV).  :class:`ShardExecutor` is
that unit.  It owns everything device-shaped for one shard: the emulated
SmartSSD and its backing file, the transfer handler, the updater /
decompressor / quantizer kernels, the error-feedback residual, the
device's fault site, the step's compressed gradient stream, the commit
log of the running update pass and the demoted flag.

Two hosts run executors:

* :class:`InlineShardHost` (``parallel_backend=thread``) keeps them in
  the engine's process and fans them out on a
  :class:`~repro.runtime.parallel.CSDWorkerPool`;
* :class:`~repro.runtime.procworker.ProcessShardCoordinator`
  (``parallel_backend=process``) keeps each one in a worker process and
  reaches it over a shared-memory shard channel.

Every executor operation returns the same scalar report (traffic byte
counts plus the demotion fields), which the engine folds into its meter
and demotion bookkeeping on its own thread.  With one implementation of
each per-CSD operation, the two backends are bit-identical by
construction.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry
from ..compression.error_feedback import ErrorFeedback, compress_with_feedback
from ..compression.topk import CompressedGradient, keep_count
from ..csd.device import SmartSSDDevice
from ..csd.handler import (Subgroup, TransferHandler, naive_update_pass,
                           plan_subgroups)
from ..csd.kernels import DecompressorKernel, UpdaterKernel
from ..errors import DeviceFailedError, RetryExhaustedError
from ..faults import FaultInjector
from ..memory import thread_arena
from ..modelcomp.quantization import (QuantizedTensor, QuantizerKernel,
                                      dequantize_int8)
from ..optim import make_optimizer
from ..optim.base import scratch_buffers
from .engine import TrainingConfig, fault_bypass
from .interleave import InterleavedScheduler
from .parallel import CSDWorkerPool
from .partition import Shard

#: ``publish(global_start, values)``: hand one subgroup's final FP32
#: masters to the host.  ``values`` may be masked in place.
Publish = Callable[[int, np.ndarray], None]

#: A report's traffic counters, in bytes.
TRAFFIC_KEYS = ("host_write", "host_read", "internal_read",
                "internal_write")


def shard_subgroups(shard: Shard, config: TrainingConfig) -> List[Subgroup]:
    """The DRAM-sized subgroups one shard updates in."""
    return plan_subgroups(shard.count,
                          min(config.subgroup_elements, shard.count))


def make_quantizer(config: TrainingConfig) -> Optional[QuantizerKernel]:
    """The §VIII-B upstream quantizer kernel, or None when disabled."""
    if not config.quantized_upstream:
        return None
    group = config.quantization_group
    chunk = max(group, (config.kernel_chunk_elements // group) * group)
    return QuantizerKernel(group_size=group, chunk_elements=chunk)


def dense_shard_grads(compressed: Optional[CompressedGradient],
                      shard_grads: np.ndarray) -> np.ndarray:
    """The gradient vector the shard's update kernel consumes."""
    if compressed is None:
        return shard_grads
    grads = np.zeros(shard_grads.size, dtype=np.float32)
    grads[compressed.indices] = compressed.values
    return grads


class ShardExecutor:
    """One CSD's complete state machine for its shard.

    ``masters`` is the shard's initial FP32 masters (placed on the device
    outside the fault domain).  ``upstream`` is where the update pass
    writes each subgroup's final masters before calling ``publish``: a
    shard-sized host buffer, or None for a per-subgroup scratch block
    from the worker thread's arena.
    """

    def __init__(self, index: int, storage_dir: str, shard: Shard,
                 config: TrainingConfig, state_names: Sequence[str],
                 states_per_param: int, faults: Optional[FaultInjector],
                 masters: np.ndarray, publish: Publish,
                 upstream: Optional[np.ndarray] = None) -> None:
        self.index = index
        self.shard = shard
        self.config = config
        self.state_names = tuple(state_names)
        self.faults = faults
        self.publish = publish
        self.upstream = upstream
        self.subgroups = shard_subgroups(shard, config)
        self.demoted = False
        #: This step's compressed stream (None for dense gradients).
        self.compressed: Optional[CompressedGradient] = None
        #: ``(masters, states)`` read off the device at demotion.
        self.salvaged: Optional[Tuple[np.ndarray,
                                      Dict[str, np.ndarray]]] = None
        self.optimizer = make_optimizer(config.optimizer,
                                        **config.optimizer_kwargs)
        self.handler: Optional[TransferHandler] = None

        words = 2 + states_per_param
        capacity = 4 * shard.count * words + shard.count + (2 << 20)
        site = faults.site(shard.device_id) if faults is not None else None
        self.device = SmartSSDDevice(
            os.path.join(storage_dir, f"csd{shard.device_id}.img"),
            capacity, device_id=shard.device_id, fault_site=site)
        try:
            self._lay_out(masters)
            self.kernel = UpdaterKernel(
                self.optimizer, chunk_elements=config.kernel_chunk_elements)
            self.decompressor = DecompressorKernel(
                chunk_elements=config.kernel_chunk_elements)
            self.quantizer = make_quantizer(config)
            self.feedback: Optional[ErrorFeedback] = None
            if config.compression_ratio is not None \
                    and config.error_feedback:
                self.feedback = ErrorFeedback(shard.count)
            if config.use_transfer_handler:
                self.handler = TransferHandler(
                    self.device, self.state_names, self.subgroups[0].count)
        except BaseException:
            self.close(abandon=True)
            raise

    def _lay_out(self, masters: np.ndarray) -> None:
        """Allocate the device regions and place the initial state
        (setup traffic, outside the fault domain)."""
        config, count = self.config, self.shard.count
        store = self.device.store
        store.allocate("master_params", count)
        for name in self.state_names:
            store.allocate(name, count)
        if config.compression_ratio is None:
            store.allocate("grads", count)
        else:
            kept = keep_count(count, config.compression_ratio)
            store.allocate("comp_indices", kept, dtype=np.int32)
            store.allocate("comp_values", kept, dtype=np.float32)
        if config.quantized_upstream:
            # §VIII-B: int8 masters + per-group scales, laid out so each
            # subgroup owns a fixed stripe of the scales region.
            store.allocate("masters_q", count, dtype=np.int8)
            store.allocate("masters_scales",
                           len(self.subgroups) * self._groups_per_subgroup,
                           dtype=np.float32)
        with fault_bypass(self.faults):
            store.write_array("master_params", masters)
            zero = np.zeros(count, dtype=np.float32)
            for name in self.state_names:
                store.write_array(name, zero)

    @property
    def _groups_per_subgroup(self) -> int:
        return -(-self.subgroups[0].count // self.config.quantization_group)

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def _report(self) -> Dict[str, object]:
        return {"index": self.index, "host_write": 0, "host_read": 0,
                "internal_read": 0, "internal_write": 0, "updated": False,
                "demoted_now": False, "recovered": False, "cause": "",
                "cause_type": "", "retry_exhausted": False}

    @contextlib.contextmanager
    def _metered(self):
        """A fresh report whose internal byte counts cover the block."""
        report = self._report()
        traffic = self.device.internal_traffic
        reads, writes = traffic.bytes_read, traffic.bytes_written
        yield report
        report["internal_read"] = traffic.bytes_read - reads
        report["internal_write"] = traffic.bytes_written - writes

    # ------------------------------------------------------------------
    # the per-step operations
    # ------------------------------------------------------------------
    def offload(self, grads: np.ndarray) -> Dict[str, object]:
        """Write this shard's gradients to the device (Fig. 4b step 2).

        Compression (which mutates the error-feedback residual) runs
        exactly once, *before* any device I/O, so a device failure during
        the write reuses the computed stream instead of recompressing —
        double-applying the residual would break bit-identity.  A demoted
        shard does no I/O; its stream still feeds the host-CPU update.
        """
        ratio = self.config.compression_ratio
        with self._metered() as report, telemetry.trace_span(
                "offload_device", device=self.index,
                resource="host-link-down",
                worker=threading.current_thread().name):
            self.compressed = None
            if ratio is not None:
                # The |g| magnitude pass stages in this worker thread's
                # arena instead of a fresh shard-sized temporary.
                with thread_arena().checkout(self.shard.count) as scratch:
                    self.compressed = compress_with_feedback(
                        grads, self.feedback, ratio, abs_scratch=scratch)
            if self.demoted:
                return report
            try:
                if self.compressed is None:
                    self.device.host_write("grads", grads)
                    report["host_write"] = 4 * self.shard.count
                else:
                    self.device.host_write("comp_indices",
                                           self.compressed.indices)
                    self.device.host_write("comp_values",
                                           self.compressed.values)
                    report["host_write"] = self.compressed.nbytes
            except (DeviceFailedError, RetryExhaustedError) as exc:
                # No update is in flight, so the device holds a
                # consistent post-previous-step shard.
                self._demote(exc, report)
        return report

    def update(self, grads: np.ndarray, step_count: int,
               lr: float) -> Dict[str, object]:
        """Near-storage update + upstream transfer (Fig. 4b / Fig. 6b).

        ``grads`` is the step's shard gradient vector, needed only to
        replay the pass exactly if the device fails mid-way.
        """
        with self._metered() as report:
            if self.demoted:
                return report
            self.optimizer.lr = lr
            committed_params: Set[int] = set()
            committed_states: Set[Tuple[str, int]] = set()
            try:
                self._update_pass(step_count, report, committed_params,
                                  committed_states)
                report["updated"] = True
            except (DeviceFailedError, RetryExhaustedError) as exc:
                self._demote(exc, report, in_flight=(
                    grads, step_count, committed_params, committed_states))
        return report

    def step(self, grads: np.ndarray, step_count: int, lr: float,
             do_update: bool) -> Dict[str, object]:
        """Offload then (if the scaler allowed it) update, in one task.

        The interleaved schedule runs this per shard, so shard chains
        overlap with no offload barrier; the device sees the same
        operation sequence as the phased schedule.
        """
        report = self.offload(grads)
        if not do_update or self.demoted:
            return report
        merged = self.update(grads, step_count, lr)
        for key in TRAFFIC_KEYS:
            merged[key] += report[key]
        return merged

    def _update_pass(self, step_count: int, report: Dict[str, object],
                     committed_params: Set[int],
                     committed_states: Set[Tuple[str, int]]) -> None:
        """Run the handler (or naive) pass, recording which subgroup
        slices durably reached the SSD so a mid-pass failure can be
        recovered exactly."""
        load_grads, release_grads = self._grad_loader()

        def on_params_written(subgroup: Subgroup) -> None:
            # The urgent write-back just landed: record the commit before
            # the upstream transfer, which may itself hit a fault.
            committed_params.add(subgroup.start)
            with telemetry.trace_span("upstream_subgroup", device=self.index,
                                      subgroup=subgroup.index,
                                      resource="host-link-up"):
                report["host_read"] += self._upstream_subgroup(subgroup)

        def on_state_written(name: str, subgroup: Subgroup) -> None:
            committed_states.add((name, subgroup.start))

        with telemetry.trace_span("device_update", device=self.index,
                                  subgroups=len(self.subgroups),
                                  worker=threading.current_thread().name):
            try:
                if self.handler is not None:
                    self.handler.run_update_pass(
                        self.subgroups, self.kernel, step_count, load_grads,
                        on_params_written)
                else:
                    naive_update_pass(self.device, self.subgroups,
                                      self.kernel, step_count,
                                      self.state_names, load_grads,
                                      on_params_written, on_state_written)
            finally:
                release_grads()

    def _grad_loader(self) -> Tuple[Callable[[Subgroup, np.ndarray],
                                             np.ndarray],
                                    Callable[[], None]]:
        """Build the per-subgroup gradient loader for one update pass.

        SmartUpdate reads dense gradients over P2P; SmartComp reads the
        compressed stream over P2P and runs the FPGA decompressor to fill
        the gradient buffer for the subgroup's index range (§V-B).

        The compressed stream is read over the internal path *once per
        pass* into arena-staged blocks cached in "FPGA DRAM" (it is
        read-only while the pass runs), with one precomputed
        ``searchsorted`` over the subgroup boundaries; each subgroup then
        just slices and rebases indices in place.

        Returns ``(loader, release)``; ``release`` must run on the same
        worker thread once the pass ends.
        """
        device, subgroups = self.device, self.subgroups
        if self.compressed is None:
            def load_dense(subgroup: Subgroup,
                           buffer: np.ndarray) -> np.ndarray:
                return device.p2p_read_into("grads", subgroup.start, buffer,
                                            subgroup.count)
            return load_dense, lambda: None

        arena = thread_arena()
        kept = device.store.region("comp_indices").num_elements
        staged = [arena.acquire(kept, dtype=np.int32),
                  arena.acquire(kept, dtype=np.float32),
                  arena.acquire(kept, dtype=np.int32)]
        idx_stage, val_stage, local_stage = staged

        def release() -> None:
            for block in staged:
                arena.release(block)

        try:
            indices = device.p2p_read_into("comp_indices", 0, idx_stage, kept)
            values = device.p2p_read_into("comp_values", 0, val_stage, kept)
        except BaseException:
            release()
            raise
        # Subgroups tile [0, shard.count) in order, so one sorted lookup of
        # every boundary yields each subgroup's [lo, hi) stream slice.
        edges = np.fromiter((subgroup.start for subgroup in subgroups),
                            dtype=np.int64, count=len(subgroups))
        edges = np.append(edges, subgroups[-1].start + subgroups[-1].count)
        bounds = np.searchsorted(indices, edges, side="left")
        decompressor = self.decompressor

        def load_compressed(subgroup: Subgroup,
                            buffer: np.ndarray) -> np.ndarray:
            lo = int(bounds[subgroup.index])
            hi = int(bounds[subgroup.index + 1])
            local_view = local_stage[:hi - lo]
            np.subtract(indices[lo:hi], np.int32(subgroup.start),
                        out=local_view)
            return decompressor.run(CompressedGradient(
                indices=local_view, values=values[lo:hi],
                original_size=subgroup.count), buffer)

        return load_compressed, release

    def _upstream_subgroup(self, subgroup: Subgroup) -> int:
        """Upstream one updated subgroup to the host; returns host bytes.

        Plain flow (Fig. 4b step 4): the host reads the FP32 masters.
        Quantized flow (§VIII-B): the CSD quantizes the masters (still in
        FPGA DRAM after the update, so they are fetched un-metered) to
        int8 + per-group scales and writes them over the internal path;
        the host reads only that compressed form (~4x less traffic) and
        dequantizes for the straight-through-estimator forward pass.
        """
        start, count = subgroup.start, subgroup.count
        if self.upstream is None:
            destination = thread_arena().checkout(count)
        else:
            destination = contextlib.nullcontext(
                self.upstream[start:start + count])
        device = self.device
        with destination as values:
            if self.quantizer is None:
                device.host_read_into("master_params", values, start, count)
                nbytes = 4 * count
            else:
                quantized = self.quantizer.run(device.store.read_slice_into(
                    "master_params", start, count, values))
                scale_offset = subgroup.index * self._groups_per_subgroup
                device.p2p_write("masters_q", start, quantized.values)
                device.p2p_write("masters_scales", scale_offset,
                                 quantized.scales)
                q_values = device.host_read("masters_q", start, count)
                scales = device.host_read("masters_scales", scale_offset,
                                          quantized.scales.size)
                nbytes = count + 4 * scales.size
                np.copyto(values, dequantize_int8(QuantizedTensor(
                    values=q_values.astype(np.int8), scales=scales,
                    group_size=self.config.quantization_group,
                    original_size=count)))
            self.publish(self.shard.start + start, values)
        return nbytes

    # ------------------------------------------------------------------
    # demotion (graceful degradation to the host-CPU update path)
    # ------------------------------------------------------------------
    def _demote(self, cause: BaseException, report: Dict[str, object],
                in_flight=None) -> None:
        """Mark the device dead and salvage the shard into ``salvaged``.

        The salvage reads use the emulated maintenance path (outside the
        fault domain); a half-finished update pass is recovered exactly,
        so the host-CPU path continues the fault-free trajectory.
        """
        with telemetry.trace_span("engine.demote", device=self.index,
                                  cause=type(cause).__name__):
            if self.faults is not None:
                # An exhausted retry budget demotes too: mark the device
                # dead so straggling I/O fails fast.
                self.faults.fail_device(self.shard.device_id,
                                        reason=str(cause))
            committed_states: Set[Tuple[str, int]] = set()
            if self.handler is not None:
                # Join the lazy write-back worker; its commit log is
                # final only after the join.
                self.handler.abandon()
                committed_states |= self.handler.state_commits
            with fault_bypass(self.faults):
                masters = self.device.store.read_array("master_params")
                states = {name: self.device.store.read_array(name)
                          for name in self.state_names}
            if in_flight is not None:
                grads, step_count, committed_params, naive_states = in_flight
                self._recover_in_flight(
                    masters, states, dense_shard_grads(self.compressed, grads),
                    step_count, committed_params,
                    committed_states | naive_states)
            self.salvaged = (masters, states)
            self.demoted = True
            self.device.close()
        report.update(
            demoted_now=True, recovered=in_flight is not None,
            cause=str(cause), cause_type=type(cause).__name__,
            retry_exhausted=isinstance(cause, RetryExhaustedError))

    def _recover_in_flight(self, masters: np.ndarray,
                           states: Dict[str, np.ndarray], grads: np.ndarray,
                           step_count: int, committed_params: Set[int],
                           committed_states: Set[Tuple[str, int]]) -> None:
        """Finish a mid-pass-interrupted update exactly, on the host.

        Per subgroup, the salvaged device data is in one of two shapes
        (the urgent parameter write-back always precedes the lazy state
        write-backs):

        * params uncommitted — everything is pre-update: recompute the
          whole subgroup from (pre-params, grads, pre-states);
        * params committed — masters are post-update; recompute only the
          state slices whose write-back never landed.  This is exact
          because every optimizer here has param-independent state
          transitions, so the post-state is reproducible without the
          pre-params we no longer have.
        """
        for subgroup in self.subgroups:
            sl = slice(subgroup.start, subgroup.start + subgroup.count)
            params_done = subgroup.start in committed_params
            pending = [name for name in self.state_names
                       if (name, subgroup.start) not in committed_states]
            if params_done and not pending:
                continue
            with scratch_buffers(subgroup.count,
                                 1 + len(self.state_names)) as blocks:
                scratch_params = blocks[0]
                np.copyto(scratch_params, masters[sl])
                scratch_state = {}
                for name, block in zip(self.state_names, blocks[1:]):
                    np.copyto(block, states[name][sl])
                    scratch_state[name] = block
                self.optimizer.step(scratch_params, grads[sl],
                                    scratch_state, step_count)
                if not params_done:
                    masters[sl] = scratch_params
                    pending = self.state_names
                for name in pending:
                    states[name][sl] = scratch_state[name]

    # ------------------------------------------------------------------
    # checkpointing + teardown
    # ------------------------------------------------------------------
    def read_state(self) -> Dict[str, np.ndarray]:
        """Masters + optimizer states (absent once demoted) and the EF
        residual, read as maintenance traffic."""
        arrays: Dict[str, np.ndarray] = {}
        if not self.demoted:
            with fault_bypass(self.faults):
                for name in ("master_params", *self.state_names):
                    arrays[name] = self.device.store.read_array(name)
        if self.feedback is not None:
            arrays["ef_residual"] = self.feedback.residual
        return arrays

    def write_state(self, arrays: Dict[str, np.ndarray]) -> None:
        """Adopt checkpointed masters/states (ignored once demoted) and,
        when given, the EF residual."""
        if not self.demoted:
            with fault_bypass(self.faults):
                for name in ("master_params", *self.state_names):
                    self.device.store.write_array(name, arrays[name])
        if self.feedback is not None and "ef_residual" in arrays:
            np.copyto(self.feedback.residual, arrays["ef_residual"])

    def close(self, abandon: bool = False) -> None:
        """Release handler and device (a demoted shard holds neither)."""
        if self.demoted:
            return
        if self.handler is not None:
            if abandon:
                self.handler.abandon()
            else:
                self.handler.close()
        self.device.close()


class InlineShardHost:
    """Runs one executor per shard in this process.

    Per-device work is independent (disjoint shards, private files,
    private handlers), so offload and update fan out on a persistent
    :class:`~repro.runtime.parallel.CSDWorkerPool`; ``workers=1`` is the
    sequential loop.  Upstream installs happen per subgroup on the
    worker threads, overlapped with the handlers' lazy write-backs.
    """

    def __init__(self, storage_dir: str, shards: Sequence[Shard],
                 config: TrainingConfig, state_names: Sequence[str],
                 states_per_param: int, masters: np.ndarray,
                 publish: Publish, workers: int,
                 faults: Optional[FaultInjector]) -> None:
        self.executors: List[ShardExecutor] = []
        self.pool = CSDWorkerPool(workers)
        self._interleave = InterleavedScheduler(self.pool)
        try:
            for index, shard in enumerate(shards):
                self.executors.append(ShardExecutor(
                    index, storage_dir, shard, config, state_names,
                    states_per_param, faults,
                    masters[shard.start:shard.end], publish))
        except BaseException:
            self.close(abandon=True)
            raise

    @property
    def devices(self) -> List[SmartSSDDevice]:
        return [executor.device for executor in self.executors]

    def offload(self, flat_grads: np.ndarray) -> List[Dict[str, object]]:
        return self.pool.map_ordered(
            lambda ex: ex.offload(flat_grads[ex.shard.start:ex.shard.end]),
            self.executors)

    def update(self, flat_grads: np.ndarray, step_count: int,
               lr: float) -> List[Dict[str, object]]:
        return self.pool.map_ordered(
            lambda ex: ex.update(flat_grads[ex.shard.start:ex.shard.end],
                                 step_count, lr),
            self.executors)

    def step(self, flat_grads: np.ndarray, step_count: int, lr: float,
             do_update: bool) -> List[Dict[str, object]]:
        return self._interleave.run(
            lambda ex: ex.step(flat_grads[ex.shard.start:ex.shard.end],
                               step_count, lr, do_update),
            self.executors)

    def compressed(self, index: int) -> Optional[CompressedGradient]:
        return self.executors[index].compressed

    def salvage(self, index: int
                ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        executor = self.executors[index]
        salvaged, executor.salvaged = executor.salvaged, None
        return salvaged

    def read_state(self) -> List[Dict[str, np.ndarray]]:
        return [executor.read_state() for executor in self.executors]

    def write_state(self, per_shard: Sequence[Dict[str, np.ndarray]]
                    ) -> None:
        for executor, arrays in zip(self.executors, per_shard):
            executor.write_state(arrays)

    def merge_fault_stats(self, stats: Dict[str, object]) -> None:
        """Nothing to add: the executors count into the engine's own
        fault injector."""

    def close(self, abandon: bool = False) -> None:
        self.pool.close()
        for executor in self.executors:
            executor.close(abandon)


__all__ = [
    "InlineShardHost",
    "ShardExecutor",
    "dense_shard_grads",
    "make_quantizer",
    "shard_subgroups",
]
