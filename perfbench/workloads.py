"""The four training workloads the benchmark runs.

Each workload is a closed loop with one client (the training loop): the
next ``train_step`` starts only when the previous one has returned.  The
engine is built only through the public surface (``create_engine``,
``TrainingConfig``, the ``repro.nn`` model constructors) and receives
nothing but a pool of token/label batches generated from the workload
seed before timing starts.

Backend and schedule are left at their defaults (``thread`` /
``phased``): the benchmark never names those knobs, so removing either
alternative later cannot invalidate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: Knobs shared by every workload: Adam, 16Ki kernel chunk, 64Ki subgroup.
COMMON_CONFIG: Dict[str, object] = {
    "optimizer": "adam",
    "optimizer_kwargs": {"lr": 1e-3},
    "subgroup_elements": 1 << 16,
    "kernel_chunk_elements": 1 << 14,
}

#: Batches generated per run; step ``i`` trains on batch ``i % POOL_SIZE``.
POOL_SIZE = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: model shape, engine config, reference."""

    name: str
    why: str
    mode: str
    dim: int
    num_layers: int
    vocab_size: int
    seq_len: int
    batch: int
    config: Dict[str, object] = field(default_factory=dict)
    #: Engine mode + config overrides of the bit-identity reference.
    reference_mode: str = "host_offload"
    reference_config: Dict[str, object] = field(default_factory=dict)

    def training_config(self, reference: bool = False):
        from repro.api import TrainingConfig
        overrides = self.reference_config if reference else {}
        return TrainingConfig(**{**COMMON_CONFIG, **self.config,
                                 **overrides})

    def make_model(self, seed: int):
        from repro.nn import SequenceClassifier, bert_config
        return SequenceClassifier(
            bert_config(vocab_size=self.vocab_size, dim=self.dim,
                        num_layers=self.num_layers, num_heads=2,
                        max_seq_len=self.seq_len),
            num_classes=2, seed=seed)

    def make_batches(self, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The input pool: the same seed always yields the same batches."""
        rng = np.random.default_rng(seed)
        return [(rng.integers(0, self.vocab_size,
                              size=(self.batch, self.seq_len)),
                 rng.integers(0, 2, size=self.batch))
                for _ in range(POOL_SIZE)]

    @property
    def tokens_per_step(self) -> int:
        return self.batch * self.seq_len


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


_UPDATE_MODEL = {"dim": 160, "num_layers": 2, "vocab_size": 4096,
                 "seq_len": 32, "batch": 2}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="dense_update",
        why=("smart engine, 1 CSD, dense gradients: the CSD update pass "
             "(handler, updater kernel, p2p I/O, fp16 install) is about "
             "half the step; compression is bypassed"),
        mode="smart", config={"num_csds": 1}, **_UPDATE_MODEL),
    Workload(
        name="smartcomp_fanout",
        why=("4 CSDs, Top-K 2% with error feedback, 2 workers: the only "
             "workload running compression, the decompressor kernel and "
             "the multi-device worker fan-out"),
        mode="smart",
        config={"num_csds": 4, "compression_ratio": 0.02,
                "error_feedback": True, "parallel_csds": 2},
        # host_offload has no compression: the reference is the same
        # config run sequentially.
        reference_mode="smart", reference_config={"parallel_csds": 1},
        **_UPDATE_MODEL),
    Workload(
        name="compute_bound",
        why=("smart engine, 1 CSD, deeper/longer model: forward/backward "
             "is over 90% of the step, so an update-path change must read "
             "as no change here"),
        mode="smart", config={"num_csds": 1},
        dim=128, num_layers=4, vocab_size=256, seq_len=128, batch=8),
    Workload(
        name="baseline_raid",
        why=("ZeRO-Infinity baseline on RAID0 x2 with CPU Adam: all "
             "optimizer state crosses the host path, striped; the only "
             "workload on the baseline engine and storage.raid0"),
        mode="baseline", config={"raid_members": 2}, **_UPDATE_MODEL),
)}
