"""Simulated trusted execution environment enclaves.

The :class:`Enclave` enforces the two properties PELTA relies on:

* **confidentiality** — values stored inside the enclave (sealed parameters,
  shielded activations and gradients) can only be read back through a
  privileged accessor; ordinary (attacker) code paths raise
  :class:`~repro.tee.errors.EnclaveAccessError`;
* **bounded secure memory** — TrustZone-style enclaves only have a few tens
  of megabytes of secure memory, so every allocation is accounted for and an
  over-budget allocation raises :class:`~repro.tee.errors.EnclaveMemoryError`
  (this is precisely why PELTA shields only the shallowest layers).

A worst-case accounting convention matching Table I of the paper is used:
intermediate activations and gradients produced inside a shield scope are kept
resident unless :meth:`flush_regions` is called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autodiff.context import ShieldRegion, shield_scope
from repro.autodiff.tensor import Tensor
from repro.nn.module import Parameter
from repro.tee.attestation import AttestationQuote, measure_payload, produce_quote
from repro.tee.errors import EnclaveAccessError, EnclaveMemoryError
from repro.tee.world import WorldBoundary

_MB = 1024 * 1024


@dataclass
class EnclaveMemoryReport:
    """Breakdown of the secure memory used by an enclave."""

    sealed_bytes: int
    region_value_bytes: int
    region_gradient_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.sealed_bytes + self.region_value_bytes + self.region_gradient_bytes


class Enclave:
    """A generic TEE enclave with byte-accurate secure-memory accounting."""

    def __init__(
        self,
        name: str,
        memory_limit_bytes: int,
        boundary: WorldBoundary | None = None,
    ):
        self.name = name
        self.memory_limit_bytes = int(memory_limit_bytes)
        self.boundary = boundary if boundary is not None else WorldBoundary()
        self._sealed: dict[str, np.ndarray] = {}
        self._regions: list[ShieldRegion] = []

    # ------------------------------------------------------------------ #
    # Sealed storage (parameters of the shielded stem)
    # ------------------------------------------------------------------ #
    def seal(self, key: str, value: np.ndarray | Tensor) -> None:
        """Store an array inside the enclave under ``key``."""
        array = value.data if isinstance(value, Tensor) else np.asarray(value)
        new_bytes = array.nbytes - (self._sealed[key].nbytes if key in self._sealed else 0)
        self._check_capacity(new_bytes)
        self._sealed[key] = np.array(array, copy=True)
        if isinstance(value, Tensor):
            value.shielded = True

    def seal_parameters(self, parameters: list[Parameter], prefix: str = "") -> int:
        """Seal a list of parameters, returning the number of bytes sealed."""
        total = 0
        for index, parameter in enumerate(parameters):
            label = parameter.name if parameter.name else f"param{index}"
            self.seal(f"{prefix}{label}.{index}", parameter)
            total += parameter.nbytes
        return total

    def unseal(self, key: str, authorized: bool = False) -> np.ndarray:
        """Read back a sealed array; only privileged callers may do so."""
        if not authorized:
            raise EnclaveAccessError(
                f"unauthorized attempt to read {key!r} from enclave {self.name!r}"
            )
        if key not in self._sealed:
            raise KeyError(f"no sealed object named {key!r}")
        return self._sealed[key].copy()

    def sealed_keys(self) -> list[str]:
        """Names of every sealed object (names are not confidential)."""
        return sorted(self._sealed)

    def contains(self, key: str) -> bool:
        return key in self._sealed

    def discard(self, key: str) -> None:
        """Remove one sealed object."""
        self._sealed.pop(key, None)

    # ------------------------------------------------------------------ #
    # Shield scopes (activations / gradients of a shielded forward pass)
    # ------------------------------------------------------------------ #
    def shield_scope(self, name: str = "stem") -> shield_scope:
        """Open a scope whose tensors are accounted against this enclave."""
        region = ShieldRegion(f"{self.name}.{name}")
        self._regions.append(region)
        return shield_scope(region)

    def flush_regions(self) -> None:
        """Drop every recorded shield region (activations leave the enclave)."""
        self._regions.clear()

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def memory_report(self, include_gradients: bool = True) -> EnclaveMemoryReport:
        """Byte breakdown of the current enclave occupancy."""
        sealed = sum(array.nbytes for array in self._sealed.values())
        values = sum(
            tensor.data.nbytes for region in self._regions for tensor in region.tensors
        )
        gradients = 0
        if include_gradients:
            gradients = sum(
                tensor.data.nbytes
                for region in self._regions
                for tensor in region.tensors
                if tensor.requires_grad
            )
        return EnclaveMemoryReport(
            sealed_bytes=sealed, region_value_bytes=values, region_gradient_bytes=gradients
        )

    @property
    def used_bytes(self) -> int:
        return self.memory_report().total_bytes

    @property
    def available_bytes(self) -> int:
        return max(self.memory_limit_bytes - self.used_bytes, 0)

    def check_capacity(self) -> None:
        """Raise if the current occupancy exceeds the secure memory budget."""
        self._check_capacity(0)

    def _check_capacity(self, extra_bytes: int) -> None:
        if self.used_bytes + extra_bytes > self.memory_limit_bytes:
            raise EnclaveMemoryError(
                f"enclave {self.name!r} over budget: "
                f"{self.used_bytes + extra_bytes} > {self.memory_limit_bytes} bytes"
            )

    # ------------------------------------------------------------------ #
    # Attestation
    # ------------------------------------------------------------------ #
    def measurement(self) -> bytes:
        """Deterministic measurement over the enclave's sealed contents."""
        parts = [self.name.encode("utf-8")]
        for key in self.sealed_keys():
            parts.append(key.encode("utf-8"))
            parts.append(self._sealed[key].tobytes())
        return measure_payload(parts)

    def attest(self, nonce: bytes, device_key: bytes) -> AttestationQuote:
        """Produce a signed quote over the current measurement."""
        return produce_quote(self.name, self.measurement(), nonce, device_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"used={self.used_bytes}B, limit={self.memory_limit_bytes}B)"
        )


class TrustZoneEnclave(Enclave):
    """Arm TrustZone secure-world enclave.

    TrustZone enclaves have limited secure memory — the paper quotes up to
    ~30 MB in some scenarios — which is the constraint that motivates PELTA's
    partial shielding.
    """

    DEFAULT_LIMIT_BYTES = 30 * _MB

    def __init__(self, name: str = "trustzone", memory_limit_bytes: int | None = None, **kwargs):
        limit = memory_limit_bytes if memory_limit_bytes is not None else self.DEFAULT_LIMIT_BYTES
        super().__init__(name, limit, **kwargs)

