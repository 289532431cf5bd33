"""Aggregation rules for combining client updates into a global model.

All three rules are defined over **flat packed vectors** (see
:mod:`repro.fl.packing`): the round's state schema becomes a stable
key/offset table, every client update packs into one contiguous vector,
and aggregation runs as a handful of whole-vector ufunc calls instead of a
``keys x clients`` Python loop.  The packed iteration order — the broadcast
``state_dict`` order — is the **canonical aggregation order**; per-key and
packed results agree to floating-point round-off, and the packed bytes are
the pinned ones.

Determinism contract (what the transport-parity tests rely on):

* ``fedavg`` accumulates weighted client vectors into **fixed client
  groups** of :data:`CLIENT_GROUP_SIZE` (grouping by participant index,
  never by arrival), and combines the group partials through
  :func:`tree_reduce` — a fixed-shape binary tree that is a pure function
  of the group count.  The result is byte-identical whether updates arrive
  serially or from worker processes.
* ``median`` / ``trimmed_mean`` keep one packed row per client (exact
  coordinate-wise order statistics need every client's value) and reduce
  the ``clients x params`` matrix in one call; every coordinate is reduced
  independently of the others.

Every rule accepts the classic ``Sequence[ModelUpdate]`` signature and runs
as its streaming aggregator fed one update at a time; the federation
runtime drives the same aggregators through :func:`streaming_aggregator_for`
as replies arrive, so FedAvg never holds all opened updates at once.  A
rule without a streaming form is rejected when the runtime is built.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from repro.autodiff.pool import scratch_pool
from repro.fl.messages import ModelUpdate
from repro.fl.packing import PackingPlan, build_plan, pack_into, unpack

AggregationRule = Callable[[Sequence[ModelUpdate]], dict[str, np.ndarray]]

#: Participant-index group size of the streaming FedAvg accumulator.  A pure
#: constant (never derived from workers or transports) so the tree shape —
#: hence the aggregate's bytes — depends on the client count alone.
CLIENT_GROUP_SIZE = 32


def tree_reduce(slabs: list, out) -> None:
    """Sum ``slabs`` into ``out`` through a fixed-shape binary tree.

    The combine order is a pure function of ``len(slabs)``: pairs merge in
    index order, odd tails carry to the next level, and the final pair lands
    in ``out``.  Floating point addition is not associative, so a fixed tree
    is what makes the reduced bytes reproducible.  Leaf slabs are consumed:
    interior sums overwrite them in place.
    """
    if len(slabs) == 1:
        np.copyto(out, slabs[0])
        return
    active = list(slabs)
    while len(active) > 2:
        merged = []
        for index in range(0, len(active) - 1, 2):
            np.add(active[index], active[index + 1], out=active[index])
            merged.append(active[index])
        if len(active) % 2:
            merged.append(active[-1])
        active = merged
    np.add(active[0], active[1], out=out)


# --------------------------------------------------------------------------- #
# Streaming aggregators (one update at a time, canonical participant order)
# --------------------------------------------------------------------------- #
class StreamingAggregator:
    """Consumes updates in participant order; yields the packed aggregate.

    ``add`` must be called in canonical (participant-index) order — the
    federation runtime's streaming reduce guarantees this by consuming the
    transport's replies head-of-line, whatever order workers finish in.
    """

    def __init__(self, plan: PackingPlan, num_clients: int):
        if num_clients < 1:
            raise ValueError("cannot aggregate an empty list of updates")
        self.plan = plan
        self.num_clients = num_clients
        self._added = 0

    def add(self, update: ModelUpdate) -> None:
        if self._added >= self.num_clients:
            raise ValueError("received more updates than announced participants")
        # Schema validation is fused into the pack (see ``pack_into``): every
        # field's shape/dtype is checked on its way into the packed row, and
        # a mismatch raises a ``ValueError`` naming the client and key.
        self._consume(update)
        self._added += 1

    def _consume(self, update: ModelUpdate) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finalize(self) -> dict[str, np.ndarray]:
        if self._added != self.num_clients:
            raise ValueError(
                f"aggregator saw {self._added} update(s), expected {self.num_clients}"
            )
        return unpack(self.plan, self._reduce())

    def _reduce(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class FedavgStream(StreamingAggregator):
    """Sample-weighted mean as grouped matrix-vector accumulation.

    Updates pack into the rows of a fixed ``CLIENT_GROUP_SIZE x params``
    group matrix; a full group collapses to one partial with a single BLAS
    ``weights @ matrix`` call — no per-client ufunc dispatch, no per-client
    temporaries.  Group membership is the participant index alone, so the
    partials (and the :func:`tree_reduce` over them) are byte-identical
    whatever the transport, worker count or arrival overlap.  Server memory
    is O(group + groups) x params — never ``clients x params``.
    """

    def __init__(self, plan: PackingPlan, num_clients: int):
        super().__init__(plan, num_clients)
        pool = scratch_pool()
        self._pool = pool
        self._matrix = pool.take(
            (min(CLIENT_GROUP_SIZE, num_clients), plan.size), plan.dtype
        )
        self._weights = np.zeros(min(CLIENT_GROUP_SIZE, num_clients), dtype=plan.dtype)
        self._slabs: list[np.ndarray] = []
        self._total_weight = 0.0

    def _consume(self, update: ModelUpdate) -> None:
        row = self._added % CLIENT_GROUP_SIZE
        weight = max(update.num_samples, 0)
        self._total_weight += float(weight)
        self._weights[row] = weight
        pack_into(
            self.plan, update.state, self._matrix[row],
            owner=f"client {update.client_id!r}",
        )
        if row == CLIENT_GROUP_SIZE - 1:
            self._flush_group(CLIENT_GROUP_SIZE)

    def _flush_group(self, rows: int) -> None:
        slab = self._pool.take((self.plan.size,), self.plan.dtype)
        np.matmul(self._weights[:rows], self._matrix[:rows], out=slab)
        self._slabs.append(slab)

    def _reduce(self) -> np.ndarray:
        if self._total_weight <= 0:
            raise ValueError("fedavg requires at least one update with samples")
        tail = self._added % CLIENT_GROUP_SIZE
        if tail:
            self._flush_group(tail)
        out = np.empty(self.plan.size, dtype=self.plan.dtype)
        tree_reduce(self._slabs, out)
        np.divide(out, self.plan.dtype.type(self._total_weight), out=out)
        for slab in self._slabs:
            self._pool.release(slab)
        self._pool.release(self._matrix)
        self._slabs = []
        return out


class _PackedMatrixStream(StreamingAggregator):
    """Shared base of the robust rules: packs updates into matrix rows.

    Exact coordinate-wise order statistics need every client's value, so the
    streaming form necessarily retains one packed row per client (the data
    itself, once — no stacked copies on top); ``_reduce`` then reduces the
    whole matrix in place.
    """

    def __init__(self, plan: PackingPlan, num_clients: int):
        super().__init__(plan, num_clients)
        self._matrix = np.empty((num_clients, plan.size), dtype=plan.dtype)

    def _consume(self, update: ModelUpdate) -> None:
        pack_into(
            self.plan, update.state, self._matrix[self._added],
            owner=f"client {update.client_id!r}",
        )


class MedianStream(_PackedMatrixStream):
    """Coordinate-wise median of the packed client matrix."""

    def _reduce(self) -> np.ndarray:
        out = np.empty(self.plan.size, dtype=self.plan.dtype)
        np.median(self._matrix, axis=0, out=out, overwrite_input=True)
        return out


class TrimmedMeanStream(_PackedMatrixStream):
    """Coordinate-wise trimmed mean of the packed client matrix."""

    def __init__(self, plan: PackingPlan, num_clients: int, trim_fraction: float = 0.2):
        if not 0.0 <= trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        super().__init__(plan, num_clients)
        self.trim_fraction = trim_fraction

    def _reduce(self) -> np.ndarray:
        trim = int(np.floor(self.trim_fraction * self.num_clients))
        matrix = self._matrix
        matrix.sort(axis=0)
        kept = matrix[trim : self.num_clients - trim] if self.num_clients - 2 * trim > 0 else matrix
        out = np.empty(self.plan.size, dtype=self.plan.dtype)
        np.mean(kept, axis=0, out=out)
        return out


# --------------------------------------------------------------------------- #
# Batch rules (classic Sequence[ModelUpdate] signatures)
# --------------------------------------------------------------------------- #
def _aggregate_batch(
    updates: Sequence[ModelUpdate], stream_type: type[StreamingAggregator], **kwargs
) -> dict[str, np.ndarray]:
    """Feed ``updates`` in order through a fresh ``stream_type`` aggregator.

    Batch and streamed rounds therefore produce byte-identical aggregates,
    and validation rides along with the pack (see
    :func:`~repro.fl.packing.pack_into`) instead of a separate pass.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty list of updates")
    stream = stream_type(build_plan(updates[0].state), len(updates), **kwargs)
    for update in updates:
        stream.add(update)
    return stream.finalize()


def fedavg(updates: Sequence[ModelUpdate]) -> dict[str, np.ndarray]:
    """Federated averaging: sample-count weighted mean of client parameters."""
    return _aggregate_batch(updates, FedavgStream)


def coordinate_median(updates: Sequence[ModelUpdate]) -> dict[str, np.ndarray]:
    """Coordinate-wise median — a simple robust aggregation baseline."""
    return _aggregate_batch(updates, MedianStream)


def trimmed_mean(
    updates: Sequence[ModelUpdate], trim_fraction: float = 0.2
) -> dict[str, np.ndarray]:
    """Coordinate-wise trimmed mean, discarding the extreme ``trim_fraction``."""
    return _aggregate_batch(updates, TrimmedMeanStream, trim_fraction=trim_fraction)


# --------------------------------------------------------------------------- #
# Rule registry and streaming factory
# --------------------------------------------------------------------------- #
AGGREGATION_RULES: dict[str, AggregationRule] = {
    "fedavg": fedavg,
    "median": coordinate_median,
    "trimmed_mean": trimmed_mean,
}


def get_aggregation_rule(name: str) -> AggregationRule:
    """Look up an aggregation rule by name."""
    if name not in AGGREGATION_RULES:
        raise KeyError(f"unknown aggregation rule {name!r}; available: {sorted(AGGREGATION_RULES)}")
    return AGGREGATION_RULES[name]


def streaming_form(rule: AggregationRule) -> Callable[[PackingPlan, int], StreamingAggregator]:
    """The streaming aggregator constructor ``rule`` runs as.

    Recognizes the built-in rules, including ``functools.partial`` wrappers
    such as the trim-fraction presets, and raises ``ValueError`` for any
    other rule: the federation runtime only streams.  The streamed aggregate
    is byte-identical to the batch rule by construction, since both run the
    same canonical packed computation.
    """
    target: Callable = rule
    kwargs: dict = {}
    if isinstance(rule, functools.partial):
        target = rule.func
        kwargs = dict(rule.keywords)
    if target is fedavg:
        return FedavgStream
    if target is coordinate_median:
        return MedianStream
    if target is trimmed_mean:
        return functools.partial(
            TrimmedMeanStream, trim_fraction=float(kwargs.get("trim_fraction", 0.2))
        )
    raise ValueError(
        f"aggregation rule {rule!r} has no streaming form; "
        "expected fedavg, coordinate_median or trimmed_mean"
    )


def streaming_aggregator_for(
    rule: AggregationRule, plan: PackingPlan, num_clients: int
) -> StreamingAggregator:
    """A fresh streaming aggregator equivalent to ``rule`` (see :func:`streaming_form`)."""
    return streaming_form(rule)(plan, num_clients)
