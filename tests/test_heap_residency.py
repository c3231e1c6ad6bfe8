"""A warm training step takes no fresh pages from the OS.

Forward/backward allocates and frees its activations every step.  With
the flat gradient buffer, the chunked gradient scan and
``repro.memory.retain_heap`` (fixed glibc mmap/trim thresholds), a step
after warm-up reuses the same heap pages instead of faulting them in
again.  Skipped where the C library has no working ``mallopt``.
"""

import resource

import numpy as np
import pytest

from repro.api import create_engine
from repro.memory import retain_heap
from repro.nn import SequenceClassifier, bert_config
from repro.runtime import TrainingConfig

pytestmark = pytest.mark.skipif(
    not retain_heap(), reason="C library has no working mallopt")

WARMUP_STEPS = 3
MEASURED_STEPS = 5
#: Minor faults allowed per warm step (about 2,550 before the flat
#: gradient buffer on the dense model; 0-1 with it).
MAX_FAULTS_PER_STEP = 50


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


#: (dim, layers, vocab, seq_len, batch): the dense smart-engine model and
#: a deeper, longer-sequence model where forward/backward dominates.
SHAPES = {
    "dense": (160, 2, 4096, 32, 2),
    "compute_bound": (128, 4, 256, 128, 8),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_warm_steps_take_no_fresh_pages(tmp_path, shape):
    dim, layers, vocab, seq_len, batch = SHAPES[shape]
    model = SequenceClassifier(
        bert_config(vocab_size=vocab, dim=dim, num_layers=layers,
                    num_heads=2, max_seq_len=seq_len),
        num_classes=2, seed=0)
    rng = np.random.default_rng(0)
    batches = [(rng.integers(0, vocab, size=(batch, seq_len)),
                rng.integers(0, 2, size=batch))
               for _ in range(WARMUP_STEPS + MEASURED_STEPS)]
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-3}, num_csds=1,
        subgroup_elements=1 << 16, kernel_chunk_elements=1 << 14)
    with create_engine("smart", model, loss_fn, str(tmp_path / "run"),
                       config=config) as engine:
        for tokens, labels in batches[:WARMUP_STEPS]:
            engine.train_step(tokens, labels)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for tokens, labels in batches[WARMUP_STEPS:]:
            engine.train_step(tokens, labels)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= MAX_FAULTS_PER_STEP * MEASURED_STEPS, faults
