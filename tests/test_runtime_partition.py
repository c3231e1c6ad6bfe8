"""Tests for parameter flattening and CSD shard distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.nn import SequenceClassifier, bert_config
from repro.nn.modules import Linear, Module, Parameter
from repro.runtime import FlatParameterSpace, distribute_shards


def tiny_model(seed=0):
    return SequenceClassifier(
        bert_config(vocab_size=16, dim=16, num_layers=1, num_heads=2,
                    max_seq_len=8), num_classes=2, seed=seed)


def test_flat_space_counts_all_parameters():
    model = tiny_model()
    space = FlatParameterSpace(model)
    assert space.total_elements == model.num_parameters()
    assert space.slots[0].offset == 0
    # Slots tile the space with no gaps or overlap.
    for left, right in zip(space.slots, space.slots[1:]):
        assert left.end == right.offset
    assert space.slots[-1].end == space.total_elements


def test_gather_scatter_roundtrip():
    model = tiny_model()
    space = FlatParameterSpace(model)
    flat = space.gather_params()
    space.scatter_params(np.zeros_like(flat))
    assert space.gather_params().sum() == 0.0
    space.scatter_params(flat)
    np.testing.assert_array_equal(space.gather_params(), flat)


def test_scatter_slice_matches_full_scatter():
    model_a, model_b = tiny_model(3), tiny_model(3)
    space_a = FlatParameterSpace(model_a)
    space_b = FlatParameterSpace(model_b)
    rng = np.random.default_rng(0)
    new_flat = rng.standard_normal(space_a.total_elements).astype(
        np.float32)
    space_a.scatter_params(new_flat)
    # Scatter in awkward slices.
    cursor = 0
    while cursor < space_b.total_elements:
        count = min(97, space_b.total_elements - cursor)
        space_b.scatter_slice(cursor, new_flat[cursor:cursor + count])
        cursor += count
    np.testing.assert_array_equal(space_a.gather_params(),
                                  space_b.gather_params())


def test_scatter_slice_bounds():
    space = FlatParameterSpace(tiny_model())
    with pytest.raises(PartitionError):
        space.scatter_slice(-1, np.zeros(4, dtype=np.float32))
    with pytest.raises(PartitionError):
        space.scatter_slice(space.total_elements - 2,
                            np.zeros(4, dtype=np.float32))


def test_gather_grads_zero_for_missing():
    model = tiny_model()
    space = FlatParameterSpace(model)
    grads = space.gather_grads()
    assert grads.shape == (space.total_elements,)
    assert (grads == 0).all()


def test_gather_grads_places_by_slot():
    model = tiny_model()
    space = FlatParameterSpace(model)
    name, param = next(iter(model.named_parameters()))
    param.grad = np.ones_like(param.data, dtype=np.float32)
    grads = space.gather_grads()
    slot = space.slot(name)
    assert grads[slot.offset:slot.end].sum() == slot.size
    assert grads[slot.end:].sum() == 0


def test_slot_lookup_unknown():
    space = FlatParameterSpace(tiny_model())
    with pytest.raises(PartitionError):
        space.slot("nope")


def test_parameter_under_two_names_is_rejected():
    # A second slot would re-bind param.data to it, detaching the
    # module from the first: installing [2, 2, 2] into slot "a" would
    # leave the module reading [1, 1, 1].
    module = Module()
    module.a = Parameter(np.ones(3))
    module.b = module.a
    with pytest.raises(PartitionError, match=r"'b'.*'a'"):
        FlatParameterSpace(module)


def test_install_fp16_quantizes():
    model = tiny_model()
    space = FlatParameterSpace(model)
    masters = space.gather_params() + np.float32(1e-5)
    space.install_fp16_params(masters)
    installed = space.gather_params()
    expected = masters.astype(np.float16).astype(np.float32)
    np.testing.assert_array_equal(installed, expected)


def test_empty_module_rejected():
    class Empty(Module):
        def forward(self):  # pragma: no cover
            return None

    with pytest.raises(PartitionError):
        FlatParameterSpace(Empty())


def test_flat_check_rejects_wrong_length():
    space = FlatParameterSpace(tiny_model())
    with pytest.raises(PartitionError):
        space.scatter_params(np.zeros(3, dtype=np.float32))


# ----------------------------------------------------------------------
# shards (§IV-D)
# ----------------------------------------------------------------------
def test_shards_cover_exactly_once():
    shards = distribute_shards(100, 3)
    assert [s.count for s in shards] == [34, 33, 33]
    assert shards[0].start == 0
    for left, right in zip(shards, shards[1:]):
        assert left.end == right.start
    assert shards[-1].end == 100


def test_shard_sizes_differ_by_at_most_one():
    shards = distribute_shards(1000, 7)
    counts = [s.count for s in shards]
    assert max(counts) - min(counts) <= 1


def test_shards_validate_inputs():
    with pytest.raises(PartitionError):
        distribute_shards(10, 0)
    with pytest.raises(PartitionError):
        distribute_shards(2, 3)


def test_distribution_is_architecture_agnostic():
    """Same flat length -> identical shard map regardless of the module
    structure behind it (the paper's §IV-D property)."""
    rng = np.random.default_rng(0)
    wide = Linear(10, 10, rng)       # 110 params
    deep_elems = FlatParameterSpace(wide).total_elements
    assert [
        (s.start, s.count) for s in distribute_shards(deep_elems, 4)
    ] == [(s.start, s.count) for s in distribute_shards(110, 4)]


@settings(max_examples=40, deadline=None)
@given(total=st.integers(1, 100_000), devices=st.integers(1, 16))
def test_shard_coverage_property(total, devices):
    if total < devices:
        with pytest.raises(PartitionError):
            distribute_shards(total, devices)
        return
    shards = distribute_shards(total, devices)
    assert sum(s.count for s in shards) == total
    assert len(shards) == devices
    assert all(s.count >= 1 for s in shards)
