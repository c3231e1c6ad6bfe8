"""The Smart-Infinity engine: SmartUpdate + SmartComp over functional CSDs.

Dataflow per iteration (Figs. 4b and 6):

1. forward/backward in mixed precision (shared with the baseline);
2. gradients are offloaded to their *owner CSD* — dense for SmartUpdate,
   Top-K compressed (optionally with error feedback) for SmartComp; this is
   the only downstream host traffic (2M or c% x 2M);
3. each CSD updates its shard near storage: optimizer states move only over
   the device-internal P2P path, the FPGA kernel applies the update, and
   the transfer handler overlaps lazy state write-backs;
4. as each subgroup's urgent parameter write-back lands, the host reads the
   updated FP32 masters upstream (2M total) and refreshes the FP16 working
   copy — the only upstream host traffic.

SmartUpdate runs the *same* optimizer arithmetic as the baseline, so with
compression disabled the trained model is bit-identical to the baseline's
(asserted in tests), which is the paper's Table IV "SU+O == Baseline" row.

Steps 2 and 3 are per-CSD work, done by one
:class:`~repro.runtime.shard.ShardExecutor` per device and fanned out
by a host — worker threads in this process
(:class:`~repro.runtime.shard.InlineShardHost`) or worker processes
(:class:`~repro.runtime.procworker.ProcessShardCoordinator`) — the
concurrency structure behind the paper's near-linear Fig. 11 scaling.
Because shards are disjoint and every device owns private storage and
buffers, parallel execution is bit-identical to the sequential loop.
Upstream installs write disjoint ranges of the flat parameter buffer in
place, so they need no lock; the traffic meter is folded from the
executors' reports on the calling thread.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..compression.topk import CompressedGradient
from ..csd.device import SmartSSDDevice
from ..errors import TrainingError
from ..modelcomp.pruning import PruningMask, magnitude_mask
from ..modelcomp.quantization import dequantize_int8
from ..nn.modules import Module
from .engine import (LossFn, MixedPrecisionTrainer, StepResult,
                     TrainingConfig, make_fault_injector)
from .host_offload import update_block
from .parallel import resolve_backend, resolve_workers
from .partition import FlatParameterSpace, Shard, distribute_shards
from .shard import (InlineShardHost, Publish, dense_shard_grads,
                    make_quantizer, shard_subgroups)
from .stats import TrafficMeter


def install_sink(space: FlatParameterSpace,
                 pruning_mask: Optional[PruningMask]) -> Publish:
    """The upstream sink: mask ``values`` in place, then install them
    into the FP16 working copy.

    A plain closure rather than an engine method, so the executors that
    hold it never form a reference cycle with the engine (which would
    keep a closed engine's buffers alive until the cyclic collector
    runs).
    """
    def publish(global_start: int, values: np.ndarray) -> None:
        if pruning_mask is not None:
            pruning_mask.slice(global_start, values.size).apply(values)
        space.install_fp16_slice(global_start, values)
    return publish


class SmartInfinityEngine(MixedPrecisionTrainer):
    """Near-storage training engine over multiple functional SmartSSDs."""

    def __init__(self, model: Module, loss_fn: LossFn, storage_dir: str,
                 config: Optional[TrainingConfig] = None) -> None:
        super().__init__(model, loss_fn, config or TrainingConfig())
        config = self.config
        self.faults = make_fault_injector(config)
        self._closed = False
        self._host = None

        # Graceful-degradation bookkeeping: a demoted device's shard
        # lives host-side in _host_shards (masters + optimizer states)
        # and is updated by the CPU path from then on.
        self.demotions: List[Tuple[int, str]] = []
        self.degraded_steps = 0
        self._host_shards: Dict[int, Dict[str, np.ndarray]] = {}
        try:
            if config.num_csds < 1:
                raise TrainingError("need at least one CSD")
            os.makedirs(storage_dir, exist_ok=True)
            self.shards: List[Shard] = distribute_shards(
                self.space.total_elements, config.num_csds)
            self.meter = TrafficMeter()
            self._state_names = self.optimizer.state_names
            # The backend knob picks the host for the per-CSD executors:
            # worker threads here (GIL-bound but cheap) or per-CSD worker
            # processes with shared-memory shard channels.
            self.workers = resolve_workers(config.parallel_csds,
                                           config.num_csds)
            self.backend = resolve_backend(config.parallel_backend,
                                           self.workers)
            self._init_activation_offload(storage_dir)

            masters = self.space.gather_params()
            # §VIII-B extensions: pruning mask over the flat space, and
            # the quantizer the host-CPU path uses to emulate a demoted
            # device's quantized upstream.
            self.pruning_mask: Optional[PruningMask] = None
            if config.pruning_sparsity is not None:
                self.pruning_mask = magnitude_mask(masters,
                                                   config.pruning_sparsity)
            self.quantizer = make_quantizer(config)
            self._publish = install_sink(self.space, self.pruning_mask)

            host_args = (storage_dir, self.shards, config, self._state_names,
                         self.optimizer.states_per_param, masters,
                         self._publish, self.workers)
            if self.backend == "process":
                from .procworker import ProcessShardCoordinator
                self._host = ProcessShardCoordinator(*host_args)
            else:
                self._host = InlineShardHost(*host_args, faults=self.faults)

            working = masters.copy()
            if self.pruning_mask is not None:
                self.pruning_mask.apply(working)
            self.space.install_fp16_params(working)
        except BaseException:
            # A failed __init__ must release every device and worker
            # already acquired — the caller never gets a handle to close.
            self._release(abandon=True)
            raise

    @property
    def num_csds(self) -> int:
        return len(self.shards)

    @property
    def devices(self) -> List[SmartSSDDevice]:
        """The inline executors' devices (empty under the process host,
        whose devices live in the worker processes)."""
        return self._host.devices

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_step(self, *batch: np.ndarray) -> StepResult:
        """One full iteration across all CSDs."""
        return self._run_step([batch])

    def train_step_accumulated(self, batches) -> StepResult:
        """One iteration with gradient accumulation over micro-batches."""
        return self._run_step([tuple(batch) for batch in batches])

    def _step_impl(self, batches) -> StepResult:
        host = self._host
        with telemetry.trace_span("iteration", engine="smart",
                                  num_csds=self.num_csds,
                                  backend=self.backend) as span:
            self.meter.begin_iteration()
            with telemetry.trace_span("forward_backward"):
                if len(batches) == 1:
                    loss, flat_grads, norm, overflow = \
                        self.forward_backward(batches[0])
                else:
                    loss, flat_grads, norm, overflow = \
                        self.forward_backward_many(batches)

            if self.schedule == "interleaved":
                # The overflow verdict only needs the backward's NaN
                # scan, so it is computed *before* any offload I/O; each
                # shard's fused offload+update task is then enqueued
                # immediately — the update phase rides inside the offload
                # span instead of serializing after a barrier.  Per-device
                # op order is unchanged, so results and fault streams are
                # bit-identical to phased.
                proceed = self.scaler.update(overflow)
                if proceed:
                    self.step_count += 1
                    self._apply_lr_schedule()
                with telemetry.trace_span("interleaved_update",
                                          workers=self.workers,
                                          proceed=proceed):
                    reports = host.step(flat_grads, self.step_count,
                                        self.optimizer.lr, proceed)
                    self._absorb(reports)
                    if proceed:
                        self._update_demoted(reports, flat_grads)
            else:
                with telemetry.trace_span("grad_offload"):
                    self._absorb(host.offload(flat_grads))
                proceed = self.scaler.update(overflow)
                if proceed:
                    self.step_count += 1
                    self._apply_lr_schedule()
                    with telemetry.trace_span("update",
                                              workers=self.workers):
                        reports = host.update(flat_grads, self.step_count,
                                              self.optimizer.lr)
                        self._absorb(reports)
                        self._update_demoted(reports, flat_grads)

            traffic = self.meter.end_iteration()
            self.loss_history.append(loss)
            span.set(step=self.step_count, loss=loss, overflow=overflow,
                     host_reads=traffic.host_reads,
                     host_writes=traffic.host_writes,
                     internal_reads=traffic.internal_reads,
                     internal_writes=traffic.internal_writes)
        return StepResult(step=self.step_count, loss=loss, grad_norm=norm,
                          overflow=overflow, traffic=traffic)

    def _absorb(self, reports: List[Dict[str, object]]) -> None:
        """Fold the executors' reports into the meter and adopt any
        demotion they report."""
        for report in reports:
            self.meter.add_host_write(int(report["host_write"]))
            self.meter.add_host_read(int(report["host_read"]))
            self.meter.add_internal_read(int(report["internal_read"]))
            self.meter.add_internal_write(int(report["internal_write"]))
            if report["demoted_now"]:
                self._adopt_demotion(report)

    def _update_demoted(self, reports: List[Dict[str, object]],
                        flat_grads: np.ndarray) -> None:
        """Run this step's host-CPU update for every demoted shard whose
        update the executor did not already recover."""
        for report in reports:
            index = int(report["index"])
            if index in self._host_shards and not report["recovered"]:
                self._host_update_shard(index, self._host.compressed(index),
                                        flat_grads)

    def fault_stats(self) -> Dict[str, object]:
        """Cumulative fault accounting, merged across worker processes."""
        stats = super().fault_stats()
        if getattr(self, "_host", None) is not None:
            self._host.merge_fault_stats(stats)
        return stats

    # ------------------------------------------------------------------
    # checkpoint hooks
    # ------------------------------------------------------------------
    def gather_state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat masters + moments (+ EF residuals) for checkpointing.

        Maintenance traffic, outside the fault domain; demoted shards
        are gathered from their host-resident copies, so checkpointing
        keeps working after graceful degradation — exactly when a
        checkpoint matters most.
        """
        per_shard = self._host.read_state()
        sources = [self._host_shards.get(index, arrays)
                   for index, arrays in enumerate(per_shard)]
        out = {name: np.concatenate([source[name] for source in sources])
               for name in ("master_params", *self._state_names)}
        # SmartComp's error-feedback residuals are training state too:
        # without them a resumed compressed run diverges.
        if "ef_residual" in per_shard[0]:
            out["ef_residual"] = np.concatenate(
                [arrays["ef_residual"] for arrays in per_shard])
        return out

    def scatter_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Write flat masters + moments back into shard storage."""
        per_shard = []
        for index, shard in enumerate(self.shards):
            part = {name: array[shard.start:shard.end]
                    for name, array in arrays.items()}
            for name, target in self._host_shards.get(index, {}).items():
                target[:] = part[name]
            per_shard.append(part)
        self._host.write_state(per_shard)

    # ------------------------------------------------------------------
    # graceful degradation (demotion to the host-CPU update path)
    # ------------------------------------------------------------------
    def _adopt_demotion(self, report: Dict[str, object]) -> None:
        """Permanently move one device's shard to the host-CPU path.

        The executor has already marked its device dead, salvaged masters
        and states (exactly replaying any in-flight subgroup work); the
        shard joins ``_host_shards``, the FP16 working copy is refreshed
        when an update was recovered (some subgroups never upstreamed),
        and the incident is recorded.  From then on the shard updates
        like the paper's baseline, and training output stays
        bit-identical throughout.
        """
        index = int(report["index"])
        shard = self.shards[index]
        cause, cause_type = str(report["cause"]), str(report["cause_type"])
        masters, states = self._host.salvage(index)
        self._host_shards[index] = {"master_params": masters, **states}
        if report["recovered"]:
            for subgroup in shard_subgroups(shard, self.config):
                sl = slice(subgroup.start, subgroup.start + subgroup.count)
                self._install_host_subgroup(shard.start + subgroup.start,
                                            masters[sl])
        self.demotions.append((index, cause))
        telemetry.counter("faults_demotions_total", device=index)
        kind = ("retry_exhausted" if report["retry_exhausted"]
                else "device_dropout")
        self._record_incident(
            kind, key=f"{kind}:device{index}",
            message=(f"device {index} demoted to host-CPU path "
                     f"({cause_type}: {cause})"),
            device=index, cause=cause_type)

    def _host_update_shard(self, index: int,
                           compressed: Optional[CompressedGradient],
                           flat_grads: np.ndarray) -> None:
        """One degraded step: update a demoted shard on the host CPU.

        The paper's baseline dataflow (Fig. 4a) applied to just this
        shard, against host-resident state — same element-wise
        arithmetic, so the trajectory stays bit-identical to the
        fault-free run.
        """
        shard = self.shards[index]
        host = self._host_shards[index]
        masters = host["master_params"]
        states = {name: host[name] for name in self._state_names}
        grads = dense_shard_grads(compressed,
                                  flat_grads[shard.start:shard.end])
        subgroups = shard_subgroups(shard, self.config)
        with telemetry.trace_span("device_update.degraded", device=index,
                                  subgroups=len(subgroups),
                                  resource="host-cpu",
                                  worker=threading.current_thread().name):
            for subgroup in subgroups:
                stop = subgroup.start + subgroup.count
                update_block(self.optimizer, masters, grads, states,
                             subgroup.start, stop, self.step_count)
                self._install_host_subgroup(shard.start + subgroup.start,
                                            masters[subgroup.start:stop])
        self.degraded_steps += 1
        telemetry.counter("faults_degraded_steps_total", device=index)

    def _install_host_subgroup(self, global_start: int,
                               masters_slice: np.ndarray) -> None:
        """Host-side twin of the executor's upstream transfer.

        Emulates the quantize -> dequantize upstream round-trip (exact:
        the device path stores int8 values and float32 scales verbatim)
        before publishing, which masks and refreshes the FP16 copy.
        """
        if self.quantizer is not None:
            values = dequantize_int8(self.quantizer.run(masters_slice))
        elif self.pruning_mask is not None:
            values = masters_slice.copy()  # publish masks in place
        else:
            values = masters_slice
        self._publish(global_start, values)

    # ------------------------------------------------------------------
    def _release(self, abandon: bool = False) -> None:
        """Release the executors' host (safe on partial state)."""
        self._teardown_flight()
        self._close_spill()
        if self._host is not None:
            self._host.close(abandon=abandon)

    def close(self) -> None:
        """Release every device/worker. Idempotent; demoted devices (and
        their abandoned handlers) are already closed and are skipped."""
        if self._closed:
            return
        self._closed = True
        self._release()

    def __enter__(self) -> "SmartInfinityEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
