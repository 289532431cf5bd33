"""Flat packing of ``state_dict`` mappings into contiguous vectors.

A federated round moves the *same* parameter pytree N times — once per
client.  Aggregating those updates key by key costs a Python-level loop of
``keys x clients`` small ufunc calls plus one temporary per call; at a
thousand clients that loop dominates the round.  This module gives every
aggregation rule a single dense view instead:

* :func:`build_plan` derives a :class:`PackingPlan` — a stable key/offset
  table — from the round's broadcast state.  Field order is the state
  mapping's iteration order (``state_dict()`` order), which becomes the
  **canonical packed order** all vectorized aggregation is defined over.
* :func:`pack_into` / :func:`unpack` convert between a state mapping and a
  1-D vector of the plan's dtype without intermediate allocations (the
  caller owns the destination buffer, typically drawn from a pool).

The plan also centralizes per-key **shape and dtype validation**: a client
whose update disagrees with the broadcast schema fails with a
``ValueError`` naming the client and the offending key, instead of a deep
``np.stack`` crash or a silent broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PackedField:
    """One state-dict entry's window in the packed vector."""

    key: str
    start: int
    stop: int
    shape: tuple[int, ...]
    dtype: np.dtype

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class PackingPlan:
    """Stable key/offset table mapping a state schema onto one flat vector."""

    fields: tuple[PackedField, ...]
    dtype: np.dtype

    @property
    def size(self) -> int:
        """Total element count of the packed vector."""
        return self.fields[-1].stop if self.fields else 0

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(field.key for field in self.fields)

    @property
    def nbytes(self) -> int:
        """Bytes of one packed vector (the plaintext wire cost of a state)."""
        return self.size * self.dtype.itemsize

    @cached_property
    def homogeneous(self) -> bool:
        """True when every field already carries the plan dtype (no casts)."""
        return all(field.dtype == self.dtype for field in self.fields)

    def validate(self, state: dict, owner: str = "update") -> None:
        """Check ``state`` against the plan's schema, key by key.

        Raises a ``ValueError`` naming ``owner`` (typically a client id) and
        the offending key on a missing/extra key, a shape mismatch or a
        dtype mismatch — the failure a 1000-client round wants long before a
        deep ``np.stack`` traceback.
        """
        missing = [field.key for field in self.fields if field.key not in state]
        if missing:
            raise ValueError(f"{owner}: update is missing parameter(s) {missing}")
        extra = sorted(set(state) - set(self.keys))
        if extra:
            raise ValueError(f"{owner}: update carries unexpected parameter(s) {extra}")
        for field in self.fields:
            value = np.asarray(state[field.key])
            if value.shape != field.shape:
                raise ValueError(
                    f"{owner}: parameter {field.key!r} has shape {value.shape}, "
                    f"expected {field.shape}"
                )
            if value.dtype != field.dtype:
                raise ValueError(
                    f"{owner}: parameter {field.key!r} has dtype {value.dtype}, "
                    f"expected {field.dtype}"
                )


def build_plan(state: dict) -> PackingPlan:
    """Derive the packing plan of a state mapping (broadcast order = canonical).

    The plan dtype is the NumPy promotion of every field dtype; in practice
    state dicts are homogeneous (``REPRO_DTYPE``), making packing a pure
    copy with no casts.
    """
    if not state:
        raise ValueError("cannot build a packing plan for an empty state")
    fields = []
    offset = 0
    for key, value in state.items():
        value = np.asarray(value)
        fields.append(
            PackedField(
                key=str(key),
                start=offset,
                stop=offset + value.size,
                shape=tuple(value.shape),
                dtype=value.dtype,
            )
        )
        offset += value.size
    dtype = np.result_type(*(field.dtype for field in fields))
    return PackingPlan(fields=tuple(fields), dtype=np.dtype(dtype))


def pack_into(
    plan: PackingPlan, state: dict, out: np.ndarray, owner: str = "update"
) -> np.ndarray:
    """Pack ``state`` into the 1-D buffer ``out`` in the plan's canonical order.

    Packing *is* the validation: every field's shape and dtype is checked
    against the plan on the way into the single ``np.concatenate`` call, so
    the hot path costs one schema comparison per field — no separate
    validation pass — and a malformed update still fails with the
    :meth:`PackingPlan.validate` error naming ``owner`` and the offending
    key.
    """
    fields = plan.fields
    try:
        if len(state) != len(fields):
            raise KeyError
        parts = [state[field.key] for field in fields]
        if plan.homogeneous:
            # Dtype agreement is enforced by the cast-free concatenate below
            # (``casting="no"`` raises on any part that is not exactly the
            # plan dtype), so the per-field loop only has to compare shapes.
            for value, field in zip(parts, fields):
                if value.shape != field.shape:
                    raise KeyError
            np.concatenate(parts, axis=None, out=out, casting="no")
            return out
        for value, field in zip(parts, fields):
            if value.shape != field.shape or value.dtype is not field.dtype:
                raise KeyError
    except (KeyError, AttributeError, TypeError):
        # Slow path: a real mismatch raises with the precise message naming
        # ``owner`` and the key; a benign non-ndarray (list, array with an
        # uninterned dtype) falls through to a converting pack.
        plan.validate(state, owner=owner)
        parts = [np.asarray(state[field.key]).reshape(-1) for field in fields]
    np.concatenate(parts, axis=None, out=out)
    return out


def pack(plan: PackingPlan, state: dict, owner: str = "update") -> np.ndarray:
    """Pack ``state`` into a freshly allocated vector of the plan's dtype."""
    return pack_into(plan, state, np.empty(plan.size, dtype=plan.dtype), owner=owner)


def unpack(plan: PackingPlan, vector: np.ndarray) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack`: split a packed vector back into a state dict.

    Every field is materialized as a fresh array in its recorded shape and
    dtype, so the result is safe to install into a model.
    """
    state: dict[str, np.ndarray] = {}
    for field in plan.fields:
        window = vector[field.start : field.stop]
        state[field.key] = window.reshape(field.shape).astype(field.dtype, copy=True)
    return state
