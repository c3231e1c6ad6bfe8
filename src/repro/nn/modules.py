"""Module tree: parameter containers in the style of ``torch.nn``.

A :class:`Module` owns named :class:`Parameter` leaves and child modules and
can enumerate them in a deterministic order — determinism matters because
the offload runtime flattens parameters into a single address space and the
CSD ownership map (§IV-D of the paper) is defined over that flat order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable leaf tensor."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(np.asarray(data, dtype=np.float32),
                         requires_grad=True, name=name)


class Module:
    """Base class: tracks parameters and submodules by attribute name."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[
            Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` in deterministic order."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [param for _name, param in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # state I/O (used by the offload runtime and checkpoint round-trips)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy()
                for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs "
                    f"{state[name].shape}")
            param.data[...] = state[name]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine transform ``x @ W + b`` with scaled-normal init."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True,
                 init_scale: float = 1.0) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        std = init_scale / np.sqrt(in_features)
        self.weight = Parameter(
            rng.normal(0.0, std, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token/position embedding table."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator, std: float = 0.02) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            rng.normal(0.0, std, size=(num_embeddings, dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(indices, self.weight)


class LayerNorm(Module):
    """Layer normalization with learned affine parameters."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout driven by an explicit RNG for reproducibility."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None
                 ) -> None:
        super().__init__()
        self.rate = rate
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.rng, training=self.training)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x):
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)
