"""The flat parameter and gradient buffers stay the module's storage.

``FlatParameterSpace`` makes every module parameter a view into one
contiguous float32 buffer, and installs the FP16 working copy straight
into that buffer.  Anything that re-binds ``param.data`` detaches the
module: the engines would then train a buffer nobody reads, while the
bit-identity tests still pass because every engine breaks the same way.
These tests pin the aliasing through every path that writes parameters
— construction, training steps, checkpoint and state-dict loads, a CSD
dropout demotion and the module-level optimizer — and check that the
module really moves.

Gradients get the same treatment: backward accumulates into views of
``space.grads``, ``gather_grads`` returns that buffer itself, and the
tests below pin that, the zeroing of a parameter that got no gradient,
and gradient accumulation's bit-identity to averaging copies.
"""

import numpy as np
import pytest

from repro.api import create_engine
from repro.faults import FaultPlan, FaultRule
from repro.nn import SequenceClassifier, bert_config
from repro.nn.modules import Linear, Module
from repro.nn.precision import clip_gradients
from repro.nn.tensor import Tensor
from repro.optim import Adam, ModuleOptimizer
from repro.runtime import FlatParameterSpace, TrainingConfig
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=0):
    return SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=16), num_classes=2, seed=seed)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 32, size=(4, 16)),
            rng.integers(0, 2, size=4))


def snapshot(model):
    return {name: param.data.copy()
            for name, param in model.named_parameters()}


def assert_aliased(model, flat):
    for name, param in model.named_parameters():
        assert np.shares_memory(param.data, flat), name


def assert_moved(model, before):
    for name, param in model.named_parameters():
        assert not np.array_equal(param.data, before[name]), name


def checked_step(engine, model, batch):
    before = snapshot(model)
    engine.train_step(*batch)
    assert_aliased(model, engine.space.flat)
    assert_moved(model, before)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("mode", ["smart", "baseline", "host_offload"])
def test_parameters_stay_views_of_the_flat_buffer(tmp_path, mode, backend):
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-2},
        subgroup_elements=4096, num_csds=2, parallel_csds=2,
        parallel_backend=backend)
    model = make_model()
    batch = make_batch()
    with create_engine(mode, model, loss_fn, str(tmp_path / "run"),
                       config=config) as engine:
        flat = engine.space.flat
        assert_aliased(model, flat)
        checked_step(engine, model, batch)

        ckpt = str(tmp_path / "ckpt.npz")
        save_checkpoint(engine, ckpt)
        saved = engine.space.gather_params()
        checked_step(engine, model, batch)
        load_checkpoint(engine, ckpt)
        assert_aliased(model, flat)
        np.testing.assert_array_equal(flat, saved)

        model.load_state_dict(snapshot(make_model(seed=1)))
        assert_aliased(model, flat)
        np.testing.assert_array_equal(
            engine.space.gather_params(),
            FlatParameterSpace(make_model(seed=1)).flat)
        checked_step(engine, model, batch)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_dropout_demotion_step_installs_into_the_flat_buffer(tmp_path,
                                                             backend):
    plan = FaultPlan(rules=(
        FaultRule(kind="device_dropout", device=1, at_op=3),))
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-2},
        subgroup_elements=4096, num_csds=2, parallel_csds=2,
        parallel_backend=backend, fault_plan=plan)
    model = make_model()
    batch = make_batch()
    with create_engine("smart", model, loss_fn, str(tmp_path / "run"),
                       config=config) as engine:
        engine.faults._sleep = lambda seconds: None
        for _ in range(3):
            checked_step(engine, model, batch)
            if engine.demotions:
                break
        assert [device for device, _ in engine.demotions] == [1]
        checked_step(engine, model, batch)    # a degraded step


def test_module_optimizer_updates_the_flat_buffer_in_place():
    model = make_model()
    space = FlatParameterSpace(model)
    optimizer = ModuleOptimizer(model, Adam(lr=1e-2))
    before = snapshot(model)
    model.loss(*make_batch()).backward()
    optimizer.step()
    assert_aliased(model, space.flat)
    assert_moved(model, before)


# ----------------------------------------------------------------------
# the flat gradient buffer
# ----------------------------------------------------------------------
class Toggled(Module):
    """A body every step trains and an ``extra`` head that takes part
    only when the batch asks for it, so a step can leave it without a
    gradient."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.body = Linear(8, 8, rng)
        self.extra = Linear(8, 4, rng)


def toggled_loss(model, x, use_extra):
    hidden = model.body(Tensor(x))
    loss = (hidden * hidden).mean()
    if use_extra.item():
        loss = loss + (model.extra(hidden) ** 2).mean()
    return loss


def grad_config(backend, **overrides):
    return TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-2},
        subgroup_elements=4096, num_csds=2, parallel_csds=2,
        parallel_backend=backend, **overrides)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("mode", ["smart", "baseline", "host_offload"])
def test_gradients_live_in_the_flat_gradient_buffer(tmp_path, mode,
                                                    backend):
    model = Toggled()
    x = np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32)
    with create_engine(mode, model, toggled_loss, str(tmp_path / "run"),
                       config=grad_config(backend)) as engine:
        space = engine.space
        extra = [space.slot(name) for name, _ in model.named_parameters()
                 if name.startswith("extra.")]
        engine.train_step(x, np.array(True))
        for name, param in model.named_parameters():
            assert np.shares_memory(param.grad, space.grads), name
        assert space.gather_grads() is space.grads
        for slot in extra:
            assert space.grads[slot.offset:slot.end].any(), slot.name

        # Step 2 leaves ``extra`` without a gradient: its slots must read
        # zero, not step 1's values.
        engine.train_step(x, np.array(False))
        for slot in extra:
            assert not space.grads[slot.offset:slot.end].any(), slot.name
        assert model.body.weight.grad is not None
        assert model.extra.weight.grad is None


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("mode", ["smart", "baseline", "host_offload"])
def test_accumulated_step_equals_averaged_micro_batch_copies(tmp_path, mode,
                                                             backend):
    config = grad_config(backend)
    model = make_model()
    batches = [make_batch(seed) for seed in (1, 2, 3)]
    with create_engine(mode, model, loss_fn, str(tmp_path / "run"),
                       config=config) as engine:
        # The reference: each micro-batch's unscaled gradient copied out
        # of the buffer, summed, averaged and clipped, on a twin model
        # holding the engine's FP16 working parameters.
        twin = make_model()
        twin.load_state_dict(snapshot(model))
        twin_space = FlatParameterSpace(twin)
        scale = float(engine.scaler.scale)
        copies = []
        for batch in batches:
            twin.zero_grad()
            (loss_fn(twin, *batch) * scale).backward()
            copy = twin_space.gather_grads().copy()
            copy *= np.float32(1.0 / scale)
            copies.append(copy)
        expected = copies[0]
        for copy in copies[1:]:
            expected = expected + copy
        expected *= np.float32(1.0 / len(copies))
        expected_norm = clip_gradients([expected], config.grad_clip)

        captured = {}
        accumulate = engine.forward_backward_many

        def spy(micro_batches):
            result = accumulate(micro_batches)
            captured["grads"] = result[1].copy()
            return result

        engine.forward_backward_many = spy
        result = engine.train_step_accumulated(batches)
    assert not result.overflow
    assert result.grad_norm == expected_norm
    np.testing.assert_array_equal(captured["grads"].view(np.uint32),
                                  expected.view(np.uint32))
