"""The flat parameter buffer stays the module's storage.

``FlatParameterSpace`` makes every module parameter a view into one
contiguous float32 buffer, and installs the FP16 working copy straight
into that buffer.  Anything that re-binds ``param.data`` detaches the
module: the engines would then train a buffer nobody reads, while the
bit-identity tests still pass because every engine breaks the same way.
These tests pin the aliasing through every path that writes parameters
— construction, training steps, checkpoint and state-dict loads, a CSD
dropout demotion and the module-level optimizer — and check that the
module really moves.
"""

import numpy as np
import pytest

from repro.api import create_engine
from repro.faults import FaultPlan, FaultRule
from repro.nn import SequenceClassifier, bert_config
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
