"""Mixed-precision training utilities.

Storage-offloaded training (Fig. 1 of the paper) keeps an FP16 working copy
of the parameters for forward/backward while the FP32 master copy lives in
the optimizer state on storage.  Two consequences are modelled faithfully:

* Gradients must be scanned for NaN/Inf *before* the update so the dynamic
  loss scaler can skip the step — one of the reasons gradient offload cannot
  simply be overlapped with the update (§IV-C).
* Loss scaling multiplies the loss before backward and the gradients are
  unscaled before clipping/updating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

import numpy as np

from ..errors import TrainingError


def to_fp16(array: np.ndarray) -> np.ndarray:
    """Cast an FP32 array to the FP16 working precision."""
    return np.asarray(array, dtype=np.float32).astype(np.float16)


#: Elements rounded per pass; bounds :func:`round_to_fp16`'s scratch.
_ROUND_CHUNK = 1 << 16
#: float32 bit patterns with the sign shifted out (``bits << 1``):
#: below ``_SUBNORMAL_LIMIT`` is |x| < 2**-14, the fp16-subnormal range;
#: from ``_OVERFLOW_LIMIT`` up is |x| >= 65520, inf and NaN.
_SUBNORMAL_LIMIT = np.uint32(0x38800000 << 1)
_OVERFLOW_LIMIT = np.uint32(0x477FF000 << 1)
_ROUND_MASK = np.uint32(0xFFFFE000)
_HALF = np.float32(0.5)


def round_to_fp16(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Round float32 values to the nearest fp16 value, kept as float32.

    Bit-equal to ``to_fp16(src).astype(np.float32)`` for every float32
    input, without the fp16 round trip.  fp16-normal values round to
    nearest-even on the float32 bits: add ``0xFFF`` plus the lowest kept
    mantissa bit, then clear the 13 dropped bits.  fp16 subnormals
    (|x| < 2**-14) round through ``(|x| + 0.5) - 0.5``, whose float32
    ulp of 2**-24 is the fp16 subnormal spacing.  |x| >= 65520, inf and
    NaN go through the numpy cast.  The result is written into ``out``
    (C-contiguous, same shape; may be ``src`` itself) in chunks, so
    scratch memory never exceeds one chunk.
    """
    src = np.asarray(src, dtype=np.float32)
    if out.dtype != np.float32 or not out.flags.c_contiguous \
            or out.shape != src.shape:
        raise ValueError("out must be a C-contiguous float32 array of "
                         f"shape {src.shape}")
    np.copyto(out, src)
    values = out.reshape(-1)
    bits = values.view(np.uint32)
    size = min(values.size, _ROUND_CHUNK)
    scratch = np.empty(size, dtype=np.uint32)
    flags = np.empty(size, dtype=bool)
    for lo in range(0, values.size, _ROUND_CHUNK):
        hi = min(lo + _ROUND_CHUNK, values.size)
        chunk, word = values[lo:hi], bits[lo:hi]
        tmp, flag = scratch[:hi - lo], flags[:hi - lo]
        np.left_shift(word, 1, out=tmp)
        subnormal = overflow = None
        if np.less(tmp, _SUBNORMAL_LIMIT, out=flag).any():
            subnormal = np.flatnonzero(flag)
            sub_values = chunk[subnormal]
        if tmp.max() >= _OVERFLOW_LIMIT:
            overflow = np.flatnonzero(tmp >= _OVERFLOW_LIMIT)
            big_values = from_fp16(to_fp16(chunk[overflow]))
        np.right_shift(word, 13, out=tmp)
        np.bitwise_and(tmp, 1, out=tmp)
        tmp += np.uint32(0xFFF)
        word += tmp
        word &= _ROUND_MASK
        if subnormal is not None:
            magnitude = np.abs(sub_values)
            magnitude += _HALF
            magnitude -= _HALF
            chunk[subnormal] = np.copysign(magnitude, sub_values)
        if overflow is not None:
            chunk[overflow] = big_values
    return out


def from_fp16(array: np.ndarray) -> np.ndarray:
    """Promote an FP16 array back to FP32."""
    return np.asarray(array, dtype=np.float16).astype(np.float32)


def has_overflow(arrays: Iterable[np.ndarray]) -> bool:
    """True when any gradient array contains NaN or +-Inf.

    This is the pre-update scan mixed-precision training requires; in the
    paper it is one of the constraints that forces gradients to be fully
    materialized before the update step starts.
    """
    for array in arrays:
        if not np.all(np.isfinite(array)):
            return True
    return False


def global_grad_norm(arrays: Iterable[np.ndarray]) -> float:
    """L2 norm over the concatenation of all gradient arrays."""
    total = 0.0
    for array in arrays:
        total += float(np.square(array, dtype=np.float64).sum())
    return float(np.sqrt(total))


@dataclass
class LossScaler:
    """Dynamic loss scaling as in NVIDIA AMP / DeepSpeed.

    The scale doubles every ``growth_interval`` successful steps and halves
    on every overflow (with the overflowing step skipped).
    """

    scale: float = 2.0 ** 16
    growth_factor: float = 2.0
    backoff_factor: float = 0.5
    growth_interval: int = 1000
    min_scale: float = 1.0
    max_scale: float = 2.0 ** 24
    _good_steps: int = field(default=0, repr=False)
    #: Number of steps skipped due to overflow (observable for tests).
    skipped_steps: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise TrainingError("loss scale must be positive")

    def scale_loss(self, loss_value: float) -> float:
        return loss_value * self.scale

    def unscale(self, gradients: List[np.ndarray]) -> List[np.ndarray]:
        """Divide gradients by the current scale (in place, returned)."""
        inv = 1.0 / self.scale
        for grad in gradients:
            grad *= inv
        return gradients

    def update(self, overflow: bool) -> bool:
        """Advance scaler state; returns True when the step may proceed."""
        if overflow:
            self.scale = max(self.scale * self.backoff_factor,
                             self.min_scale)
            self._good_steps = 0
            self.skipped_steps += 1
            return False
        self._good_steps += 1
        if self._good_steps >= self.growth_interval:
            self.scale = min(self.scale * self.growth_factor, self.max_scale)
            self._good_steps = 0
        return True


def clip_gradients(arrays: List[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Returns the pre-clip norm.  Requires the *whole model's* gradients —
    the second constraint (§IV-C) that serializes gradient offload before
    the update phase.
    """
    if max_norm <= 0:
        raise TrainingError("max_norm must be positive")
    norm = global_grad_norm(arrays)
    if norm > max_norm:
        factor = max_norm / (norm + 1e-12)
        for array in arrays:
            array *= factor
    return norm
