"""Flat parameter space and CSD workload distribution (§IV-D).

Smart-Infinity flattens the whole model into one contiguous parameter
address space and distributes equal contiguous shards to the CSDs.  Because
optimizer updates are element-wise, the distribution is agnostic to model
architecture — no layer/head/hidden-dim knowledge is needed — which is the
property this module preserves and the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import PartitionError
from ..nn.modules import Module
from ..nn.precision import round_to_fp16


@dataclass(frozen=True)
class ParamSlot:
    """One parameter tensor's placement in the flat space."""

    name: str
    offset: int
    size: int
    shape: Tuple[int, ...]

    @property
    def end(self) -> int:
        return self.offset + self.size


class FlatParameterSpace:
    """Bijection between a module's parameters and one flat float32 vector.

    The flat order is the module's deterministic ``named_parameters``
    order; offsets are contiguous with no padding, so every element of the
    flat vector maps to exactly one model parameter element.

    The space owns that vector as :attr:`flat`, and every parameter's
    ``data`` is a reshaped view of its slot, so writing a flat range
    updates the module in place.  Construction is the only place that
    re-binds ``param.data``; a later re-binding would silently detach
    the module from the buffer the engines install into.  Concurrent
    per-CSD update workers install into *disjoint* flat ranges of
    :attr:`flat` and never re-bind ``param.data``, so they need no lock.
    Reads (``gather_*``) happen only between fan-outs, on the
    coordinating thread.

    Gradients get the same layout in :attr:`grads`: construction binds
    each parameter's ``grad_slot`` to a view of its slot, so backward
    accumulates straight into the flat gradient vector.  A parameter
    object may appear under only one name; a second name would give it
    a second slot and detach it from the first.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self.slots: List[ParamSlot] = []
        seen: Dict[int, str] = {}
        offset = 0
        for name, param in module.named_parameters():
            if id(param) in seen:
                raise PartitionError(
                    f"parameter {name!r} is the same object as "
                    f"{seen[id(param)]!r}; a parameter reachable under "
                    "two names would get two slots and detach from one")
            seen[id(param)] = name
            slot = ParamSlot(name=name, offset=offset, size=param.size,
                             shape=param.data.shape)
            self.slots.append(slot)
            offset += param.size
        if offset == 0:
            raise PartitionError("module has no parameters")
        self.total_elements = offset
        self._by_name: Dict[str, ParamSlot] = {
            slot.name: slot for slot in self.slots}
        self.flat = np.empty(offset, dtype=np.float32)
        self.grads = np.zeros(offset, dtype=np.float32)
        self._grad_views: List[np.ndarray] = []
        for slot, (_name, param) in zip(self.slots,
                                        module.named_parameters()):
            view = self.flat[slot.offset:slot.end].reshape(slot.shape)
            np.copyto(view, param.data)
            param.data = view
            grad_view = self.grads[slot.offset:slot.end].reshape(slot.shape)
            param.grad_slot = grad_view
            self._grad_views.append(grad_view)

    def slot(self, name: str) -> ParamSlot:
        try:
            return self._by_name[name]
        except KeyError:
            raise PartitionError(f"unknown parameter {name!r}")

    # ------------------------------------------------------------------
    # gather / scatter
    # ------------------------------------------------------------------
    def gather_params(self) -> np.ndarray:
        """Current module parameters as one flat float32 vector (a copy)."""
        return self.flat.copy()

    def scatter_params(self, flat: np.ndarray) -> None:
        """Write a flat vector back into the module's parameters."""
        self._check_flat(flat)
        np.copyto(self.flat, flat)

    def scatter_slice(self, start: int, values: np.ndarray) -> None:
        """Write ``values`` into flat range [start, start+len) of the module."""
        self.flat[self._range(start, values.size)] = values

    def gather_grads(self) -> np.ndarray:
        """Accumulated gradients as one flat float32 vector (zeros where a
        parameter received no gradient).

        Returns :attr:`grads` itself, not a copy: backward accumulates
        straight into its slots, so only a parameter without a gradient
        (zeroed, so last step's values cannot leak into this one) or
        with a ``grad`` bound elsewhere (copied in) costs any work.  The
        vector is overwritten by the next backward pass.
        """
        for view, (_name, param) in zip(self._grad_views,
                                        self.module.named_parameters()):
            if param.grad is None:
                view.fill(0.0)
            elif param.grad is not view:
                np.copyto(view, param.grad.reshape(view.shape))
        return self.grads

    def install_fp16_params(self, masters: np.ndarray) -> None:
        """Install the FP16 working copy derived from FP32 masters.

        Mixed-precision semantics: the module computes forward/backward on
        parameters quantized through FP16, while ``masters`` stay FP32 in
        the optimizer state.  Rounding runs chunk by chunk straight into
        :attr:`flat`, so no model-sized temporary is built.
        """
        self._check_flat(masters)
        round_to_fp16(masters, out=self.flat)

    def install_fp16_slice(self, start: int, masters: np.ndarray) -> None:
        """FP16-quantize and install one flat slice of master parameters."""
        round_to_fp16(masters, out=self.flat[self._range(start,
                                                         masters.size)])

    def _range(self, start: int, count: int) -> slice:
        end = start + count
        if start < 0 or end > self.total_elements:
            raise PartitionError(
                f"slice [{start}, {end}) outside flat space of "
                f"{self.total_elements}")
        return slice(start, end)

    def _check_flat(self, flat: np.ndarray) -> None:
        if flat.ndim != 1 or flat.size != self.total_elements:
            raise PartitionError(
                f"flat vector must have {self.total_elements} elements, "
                f"got shape {flat.shape}")


@dataclass(frozen=True)
class Shard:
    """A contiguous flat range owned by one CSD."""

    device_id: int
    start: int
    count: int

    @property
    def end(self) -> int:
        return self.start + self.count


def distribute_shards(total_elements: int, num_devices: int) -> List[Shard]:
    """Equally distribute the flat space over ``num_devices`` CSDs.

    Shards are contiguous and cover every element exactly once; sizes
    differ by at most one element.  Architecture information is never
    consulted — only the flat length (§IV-D).
    """
    if num_devices < 1:
        raise PartitionError("need at least one device")
    if total_elements < num_devices:
        raise PartitionError(
            f"cannot distribute {total_elements} elements over "
            f"{num_devices} devices")
    base, remainder = divmod(total_elements, num_devices)
    shards = []
    start = 0
    for device_id in range(num_devices):
        count = base + (1 if device_id < remainder else 0)
        shards.append(Shard(device_id=device_id, start=start, count=count))
        start += count
    return shards
