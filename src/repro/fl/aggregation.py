"""Aggregation rules for combining client updates into a global model.

Each rule is one :class:`StreamingAggregator` subclass that works on the
``state_dict`` directly, key by key.  The federation runtime builds one per
round from the broadcast state (the schema every update must match) and the
participant count, then feeds it the opened updates one at a time:

* :class:`FedavgStream` keeps one running weighted sum per key (McMahan et
  al., AISTATS 2017), so the server never holds every update at once;
* :class:`MedianStream` and :class:`TrimmedMeanStream` keep one
  ``(num_clients, *shape)`` buffer per key and reduce it over axis 0 —
  exact coordinate-wise order statistics need every client's value (Yin et
  al., ICML 2018).

Determinism contract (what the transport-parity tests rely on): updates
are added in participant order — the runtime consumes the transport's
replies head-of-line, whatever order workers finish in — so every sum and
every buffer row is filled in the same order on every transport, and the
aggregate's bytes depend on the updates alone.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.fl.messages import ModelUpdate

#: What :class:`~repro.fl.runtime.runtime.FederationRuntime` accepts as a
#: rule: an aggregator class, or a ``functools.partial`` of one that fixes
#: its options (``trim_fraction``), called with ``(template, num_clients)``.
AggregationRule = Callable[[Mapping[str, np.ndarray], int], "StreamingAggregator"]


class StreamingAggregator:
    """Consumes updates in participant order; yields the aggregated state.

    ``template`` is the round's broadcast state: every update must carry
    exactly its keys, each with the template's shape and dtype, or ``add``
    raises a ``ValueError`` naming the client and the key.
    """

    def __init__(self, template: Mapping[str, np.ndarray], num_clients: int):
        if num_clients < 1:
            raise ValueError("cannot aggregate an empty list of updates")
        self.schema = {key: (value.shape, value.dtype) for key, value in template.items()}
        self.num_clients = num_clients
        self._added = 0

    def add(self, update: ModelUpdate) -> None:
        if self._added >= self.num_clients:
            raise ValueError("received more updates than announced participants")
        self._consume(self._validated(update), update.num_samples)
        self._added += 1

    def _validated(self, update: ModelUpdate) -> dict[str, np.ndarray]:
        """``update.state`` as arrays in schema order, checked key by key."""
        owner = f"client {update.client_id!r}"
        state = update.state
        if state.keys() != self.schema.keys():
            missing = [key for key in self.schema if key not in state]
            if missing:
                raise ValueError(f"{owner}: update is missing parameter(s) {missing}")
            extra = sorted(set(state) - set(self.schema))
            raise ValueError(f"{owner}: update carries unexpected parameter(s) {extra}")
        arrays = {}
        for key, (shape, dtype) in self.schema.items():
            value = np.asarray(state[key])
            if value.shape != shape:
                raise ValueError(
                    f"{owner}: parameter {key!r} has shape {value.shape}, expected {shape}"
                )
            if value.dtype != dtype:
                raise ValueError(
                    f"{owner}: parameter {key!r} has dtype {value.dtype}, expected {dtype}"
                )
            arrays[key] = value
        return arrays

    def _consume(
        self, state: dict[str, np.ndarray], num_samples: int
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finalize(self) -> dict[str, np.ndarray]:
        if self._added != self.num_clients:
            raise ValueError(
                f"aggregator saw {self._added} update(s), expected {self.num_clients}"
            )
        return self._reduce()

    def _reduce(self) -> dict[str, np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError


class FedavgStream(StreamingAggregator):
    """Sample-weighted mean: one running weighted sum per key."""

    def __init__(self, template: Mapping[str, np.ndarray], num_clients: int):
        super().__init__(template, num_clients)
        self._sums = {key: np.zeros(shape, dtype) for key, (shape, dtype) in self.schema.items()}
        self._total_weight = 0

    def _consume(self, state: dict[str, np.ndarray], num_samples: int) -> None:
        weight = max(num_samples, 0)
        self._total_weight += weight
        for key, total in self._sums.items():
            total += weight * state[key]

    def _reduce(self) -> dict[str, np.ndarray]:
        if self._total_weight <= 0:
            raise ValueError("fedavg requires at least one update with samples")
        for total in self._sums.values():
            total /= self._total_weight
        return self._sums


class _StackedStream(StreamingAggregator):
    """Shared base of the robust rules: one ``(num_clients, *shape)`` buffer per key."""

    def __init__(self, template: Mapping[str, np.ndarray], num_clients: int):
        super().__init__(template, num_clients)
        self._rows = {
            key: np.empty((num_clients, *shape), dtype)
            for key, (shape, dtype) in self.schema.items()
        }

    def _consume(self, state: dict[str, np.ndarray], num_samples: int) -> None:
        for key, rows in self._rows.items():
            rows[self._added] = state[key]


class MedianStream(_StackedStream):
    """Coordinate-wise median of each key's client buffer."""

    def _reduce(self) -> dict[str, np.ndarray]:
        return {
            key: np.median(rows, axis=0, overwrite_input=True) for key, rows in self._rows.items()
        }


class TrimmedMeanStream(_StackedStream):
    """Coordinate-wise mean after discarding the extreme ``trim_fraction`` per side."""

    def __init__(
        self, template: Mapping[str, np.ndarray], num_clients: int, trim_fraction: float = 0.2
    ):
        if not 0.0 <= trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        super().__init__(template, num_clients)
        self.trim_fraction = trim_fraction

    def _reduce(self) -> dict[str, np.ndarray]:
        # ``trim_fraction < 0.5`` keeps at least one row per coordinate.
        trim = int(np.floor(self.trim_fraction * self.num_clients))
        kept = slice(trim, self.num_clients - trim)
        out = {}
        for key, rows in self._rows.items():
            rows.sort(axis=0)
            out[key] = rows[kept].mean(axis=0)
        return out


#: Aggregator class of each ``aggregation`` / ``rules`` scenario name.
AGGREGATION_RULES: dict[str, type[StreamingAggregator]] = {
    "fedavg": FedavgStream,
    "median": MedianStream,
    "trimmed_mean": TrimmedMeanStream,
}
