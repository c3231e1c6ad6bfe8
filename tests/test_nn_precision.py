"""Tests for mixed-precision utilities: scaler, overflow scan, clipping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.nn.precision import (_SCAN_CHUNK, LossScaler, clip_gradients,
                                from_fp16, global_grad_norm, has_overflow,
                                round_to_fp16, to_fp16)


def test_fp16_roundtrip_quantizes():
    values = np.array([1.0, 1e-8, 3.14159265], dtype=np.float32)
    roundtrip = from_fp16(to_fp16(values))
    assert roundtrip.dtype == np.float32
    assert roundtrip[0] == 1.0
    assert roundtrip[1] == 0.0  # below fp16 subnormal resolution
    assert roundtrip[2] != values[2]  # precision was lost
    assert roundtrip[2] == pytest.approx(values[2], rel=1e-3)


# ----------------------------------------------------------------------
# round_to_fp16: bit-exact against the numpy cast
# ----------------------------------------------------------------------
def assert_rounds_like_numpy(values):
    values = np.asarray(values, dtype=np.float32)
    with np.errstate(over="ignore"):
        expected = to_fp16(values).astype(np.float32)
        got = round_to_fp16(values, np.empty(values.shape, np.float32))
    assert got.shape == values.shape
    np.testing.assert_array_equal(got.view(np.uint32),
                                  expected.view(np.uint32))


def bits(*patterns):
    return np.array(patterns, dtype=np.uint32).view(np.float32)


def test_round_to_fp16_strided_sweep_of_all_bit_patterns():
    # A prime stride visits every exponent and sign with varied
    # mantissas; the sweep spans many rounding chunks.
    assert_rounds_like_numpy(
        np.arange(0, 1 << 32, 4099, dtype=np.uint64).astype(
            np.uint32).view(np.float32))


def test_round_to_fp16_boundary_classes():
    tiny = np.float32(2.0 ** -24)          # fp16 min subnormal
    normal = np.float32(2.0 ** -14)        # fp16 min normal
    edges = [0.0, tiny, tiny / 2, tiny * 1.5, tiny * 2.5, normal,
             normal - tiny / 2, normal + tiny / 2, normal - tiny,
             65504.0, np.nextafter(np.float32(65520), np.float32(0)),
             65520.0, 65536.0, np.float32(3.0e38), np.inf]
    near = [np.nextafter(np.float32(e), np.float32(direction))
            for e in edges for direction in (0, np.inf)]
    values = np.array(edges + near, dtype=np.float32)
    assert_rounds_like_numpy(np.concatenate([values, -values]))
    assert_rounds_like_numpy(bits(
        0x7FC00000, 0x7FC00001, 0x7FFFFFFF, 0xFFC00000,   # quiet NaNs
        0x7F800001, 0x7FA00000, 0x7FBFFFFF, 0xFF800001,   # signalling
        0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF,   # fp32 subnormal
        0x80000000, 0x477FEFFF, 0x477FF000, 0x7F7FFFFF))


def test_round_to_fp16_empty_and_non_contiguous_inputs():
    assert_rounds_like_numpy(np.zeros(0, dtype=np.float32))
    values = np.random.default_rng(0).normal(
        0, 0.02, size=(96, 80)).astype(np.float32)
    assert_rounds_like_numpy(values[:, ::3])
    assert_rounds_like_numpy(values.T)


def test_round_to_fp16_writes_in_place_into_out():
    values = np.random.default_rng(1).normal(
        0, 1e-3, size=(1 << 16) + 5).astype(np.float32)
    expected = to_fp16(values).astype(np.float32)
    out = np.empty_like(values)
    assert round_to_fp16(values, out=out) is out
    np.testing.assert_array_equal(out, expected)
    assert round_to_fp16(values, out=values) is values
    np.testing.assert_array_equal(values, expected)
    with pytest.raises(ValueError):
        round_to_fp16(values, out=np.empty(3, dtype=np.float32))
    with pytest.raises(ValueError):
        round_to_fp16(values[:4], out=np.empty(8, dtype=np.float32)[::2])


@pytest.mark.slow
def test_round_to_fp16_exhaustive_over_all_float32_patterns():
    """Every one of the 2**32 float32 bit patterns (minutes of runtime;
    run with ``--runslow``)."""
    block = 1 << 22
    ramp = np.arange(block, dtype=np.uint32)
    patterns = np.empty(block, dtype=np.uint32)
    for base in range(0, 1 << 32, block):
        np.add(ramp, np.uint32(base), out=patterns)
        assert_rounds_like_numpy(patterns.view(np.float32))


def test_has_overflow_detects_nan_and_inf():
    clean = [np.ones(4, dtype=np.float32)]
    assert not has_overflow(clean)
    assert has_overflow([np.array([1.0, np.nan], dtype=np.float32)])
    assert has_overflow([np.ones(2), np.array([np.inf])])
    assert has_overflow([np.array([-np.inf])])


def test_global_grad_norm_matches_concatenation():
    a = np.array([3.0], dtype=np.float32)
    b = np.array([4.0], dtype=np.float32)
    assert global_grad_norm([a, b]) == pytest.approx(5.0)


# ----------------------------------------------------------------------
# the allocation-free gradient scan
# ----------------------------------------------------------------------
#: One below, at and above the scan chunk and numpy's 8-element unroll,
#: plus the 1.28M-parameter benchmark model's size.
NORM_SIZES = (1, 8, 65535, 65536, 65537, 131080, 1281538)


def reference_norm(arrays):
    total = 0.0
    for array in arrays:
        total += float(np.square(array, dtype=np.float64).sum())
    return float(np.sqrt(total))


def wide_range_values(size, seed):
    # Magnitudes over ~7 decades make float64 rounding depend on the
    # summation order, so a wrong split shows in a few seeds.
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(size)
            * np.exp(rng.uniform(-8.0, 8.0, size))).astype(np.float32)


@pytest.mark.parametrize("size", NORM_SIZES)
def test_global_grad_norm_is_bit_equal_to_the_float64_reference(size):
    for seed in range(8):
        values = wide_range_values(size, seed)
        assert global_grad_norm([values]) == reference_norm([values]), seed
    block = values[:size - size % 4].reshape(-1, 4) if size >= 4 else values
    assert global_grad_norm([block]) == reference_norm([block])


def test_global_grad_norm_multi_array_is_bit_equal_to_the_reference():
    arrays = [wide_range_values(size, seed)
              for seed, size in enumerate(NORM_SIZES)]
    assert global_grad_norm(arrays) == reference_norm(arrays)
    assert global_grad_norm(arrays[::-1]) == reference_norm(arrays[::-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_has_overflow_finds_bad_values_at_every_chunk_edge(bad):
    size = 3 * _SCAN_CHUNK + 5
    values = np.ones(size, dtype=np.float32)
    edges = sorted({edge for lo in range(0, size, _SCAN_CHUNK)
                    for edge in (lo, min(lo + _SCAN_CHUNK, size) - 1)})
    assert not has_overflow([values])
    for index in edges:
        values[index] = bad
        assert has_overflow([values]), index
        assert has_overflow([np.ones(3), values.reshape(-1, 1)]), index
        values[index] = 1.0
    assert not has_overflow([values, np.ones(3, dtype=np.float32)])


def test_scan_and_clip_allocate_at_most_a_chunk_of_scratch():
    grads = np.random.default_rng(0).standard_normal(1 << 20).astype(
        np.float32)
    tracemalloc.start()
    try:
        assert not has_overflow([grads])
        norm = clip_gradients([grads], max_norm=1.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norm > 1.0
    # Two chunks of float64 scratch: far below the 8 MB float64 squares
    # (or the 1 MB bool mask) a whole-array scan would build.
    assert peak < 2 * _SCAN_CHUNK * 8, peak


def test_scaler_halves_on_overflow_and_skips():
    scaler = LossScaler(scale=1024.0)
    assert not scaler.update(overflow=True)
    assert scaler.scale == 512.0
    assert scaler.skipped_steps == 1


def test_scaler_grows_after_interval():
    scaler = LossScaler(scale=4.0, growth_interval=3)
    for _ in range(3):
        assert scaler.update(overflow=False)
    assert scaler.scale == 8.0


def test_scaler_growth_counter_resets_on_overflow():
    scaler = LossScaler(scale=4.0, growth_interval=2)
    scaler.update(False)
    scaler.update(True)
    scaler.update(False)
    assert scaler.scale == 2.0  # halved once, not yet regrown


def test_scaler_respects_bounds():
    scaler = LossScaler(scale=1.0, min_scale=1.0)
    scaler.update(True)
    assert scaler.scale == 1.0
    top = LossScaler(scale=2.0 ** 24, growth_interval=1,
                     max_scale=2.0 ** 24)
    top.update(False)
    assert top.scale == 2.0 ** 24


def test_scaler_unscale_divides_in_place():
    scaler = LossScaler(scale=8.0)
    grads = [np.full(3, 16.0, dtype=np.float32)]
    scaler.unscale(grads)
    np.testing.assert_allclose(grads[0], 2.0)


def test_scaler_rejects_nonpositive_scale():
    with pytest.raises(TrainingError):
        LossScaler(scale=0.0)


def test_clip_reduces_large_norm_exactly():
    grads = [np.full(4, 10.0, dtype=np.float32)]
    before = clip_gradients(grads, max_norm=1.0)
    assert before == pytest.approx(20.0)
    assert global_grad_norm(grads) == pytest.approx(1.0, rel=1e-4)


def test_clip_leaves_small_gradients_untouched():
    grads = [np.array([0.1, 0.1], dtype=np.float32)]
    original = grads[0].copy()
    clip_gradients(grads, max_norm=5.0)
    np.testing.assert_array_equal(grads[0], original)


def test_clip_rejects_nonpositive_max_norm():
    with pytest.raises(TrainingError):
        clip_gradients([np.ones(2, dtype=np.float32)], max_norm=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), max_norm=st.floats(0.1, 10.0))
def test_clip_property_norm_never_exceeds_bound(seed, max_norm):
    rng = np.random.default_rng(seed)
    grads = [rng.standard_normal(16).astype(np.float32) * 100]
    clip_gradients(grads, max_norm=max_norm)
    assert global_grad_norm(grads) <= max_norm * (1 + 1e-4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_clip_preserves_direction(seed):
    rng = np.random.default_rng(seed)
    original = rng.standard_normal(8).astype(np.float32) * 50
    grads = [original.copy()]
    clip_gradients(grads, max_norm=1.0)
    cosine = float(np.dot(grads[0], original)
                   / (np.linalg.norm(grads[0])
                      * np.linalg.norm(original) + 1e-12))
    assert cosine == pytest.approx(1.0, abs=1e-5)
