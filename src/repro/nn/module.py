"""Module and parameter abstractions (a minimal ``torch.nn``-like API)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autodiff.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a trainable model parameter (leaf of the graph)."""

    def __init__(self, data, name: str | None = None):
        super().__init__(
            data,
            requires_grad=True,
            op="parameter",
            name=name,
            is_parameter=True,
        )


class Module:
    """Base class for neural network components.

    Sub-modules and parameters assigned as attributes are registered
    automatically, which powers :meth:`parameters`, :meth:`state_dict` and
    friends.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. running statistics)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace the contents of a registered buffer."""
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its sub-modules."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, including ``self``."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> list["Module"]:
        """All sub-modules including ``self``."""
        return [module for _, module in self.named_modules()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` pairs, depth first."""
        for name, buffer in self._buffers.items():
            yield (f"{prefix}{name}", buffer)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------ #
    # Training helpers
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout and batch norm)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(parameter.size for parameter in self.parameters())

    def parameter_nbytes(self) -> int:
        """Total bytes occupied by parameters."""
        return sum(parameter.nbytes for parameter in self.parameters())

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping from qualified names to parameter / buffer arrays."""
        state = {name: parameter.data.copy() for name, parameter in self.named_parameters()}
        for name, buffer in self.named_buffers():
            state[f"buffer::{name}"] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict`."""
        parameters = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith("buffer::"):
                continue
            if name not in parameters:
                raise KeyError(f"unexpected parameter {name!r} in state dict")
            target = parameters[name]
            if target.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {target.shape}, got {value.shape}"
                )
            target.data = np.array(value, dtype=target.dtype, copy=True)
        buffer_owners = self._buffer_owners()
        for name, value in state.items():
            if not name.startswith("buffer::"):
                continue
            qualified = name[len("buffer::") :]
            if qualified not in buffer_owners:
                raise KeyError(f"unexpected buffer {qualified!r} in state dict")
            owner, local_name = buffer_owners[qualified]
            owner.update_buffer(local_name, value)

    def _buffer_owners(self) -> dict[str, tuple["Module", str]]:
        owners: dict[str, tuple[Module, str]] = {}
        for module_name, module in self.named_modules():
            prefix = f"{module_name}." if module_name else ""
            for buffer_name in module._buffers:
                owners[f"{prefix}{buffer_name}"] = (module, buffer_name)
        return owners

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

