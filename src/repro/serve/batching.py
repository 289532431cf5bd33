"""Request queue and dynamic micro-batching for the serving runtime.

Inference traffic arrives one sample at a time; the model runs fastest over
batches whose shapes the capture cache already holds.  The
:class:`MicroBatcher` bridges the two with the classic serving trade-off:

* **max-batch** — cut a batch as soon as it holds ``max_batch`` requests;
* **max-wait** — never hold the oldest queued request longer than
  ``max_wait_us`` of (virtual) queue time waiting for co-batched traffic;
* **padding** — grow a cut batch to the next size in the pad schedule by
  repeating its last sample, so every dispatched shape comes from a small
  fixed set and the capture cache replays instead of re-recording.

Arrival times are *virtual* (microseconds on the workload's clock), which
keeps batch formation — and therefore the request → batch assignment — fully
deterministic for a given workload, independent of host load.  Service times
are measured on the real clock by the serving replica.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class InferenceRequest:
    """One inference query: a single sample plus its arrival metadata."""

    request_id: int
    payload: np.ndarray
    #: Arrival time on the workload's virtual clock (µs).
    arrival_us: float = 0.0
    #: Session the query arrived on (sealed queries only).
    session_id: str | None = None


@dataclass
class InferenceReply:
    """The serving runtime's answer to one request."""

    request_id: int
    prediction: int
    logits: np.ndarray
    #: End-to-end latency on the virtual clock: queue wait + batch service.
    latency_us: float
    #: Size of the batch (before padding) this request was served in.
    batch_size: int
    #: This request's share of the batch's TEE world switches.
    world_switches: float
    session_id: str | None = None


@dataclass
class MicroBatch:
    """A cut batch: its member requests and the (padded) input array."""

    requests: list[InferenceRequest]
    inputs: np.ndarray
    #: Number of padding rows appended to reach a schedule size.
    pad: int
    #: Virtual time the batch was cut and became ready to dispatch (µs).
    ready_us: float

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class BatchingPolicy:
    """Dynamic micro-batching knobs."""

    max_batch: int = 8
    max_wait_us: float = 5000.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_wait_us < 0:
            raise ValueError("max_wait_us must be non-negative")

    def pad_schedule(self) -> tuple[int, ...]:
        """Batch sizes a padded batch may take: powers of two up to max_batch."""
        sizes = []
        size = 1
        while size < self.max_batch:
            sizes.append(size)
            size *= 2
        sizes.append(self.max_batch)
        return tuple(sizes)

    def padded_size(self, count: int) -> int:
        """Smallest schedule size that fits ``count`` samples."""
        for size in self.pad_schedule():
            if size >= count:
                return size
        return count


class MicroBatcher:
    """Order-preserving queue cutting dynamic micro-batches from requests."""

    def __init__(self, policy: BatchingPolicy | None = None):
        self.policy = policy if policy is not None else BatchingPolicy()
        self._queue: list[InferenceRequest] = []

    def submit(self, request: InferenceRequest) -> None:
        """Enqueue one request (requests must arrive in ``arrival_us`` order)."""
        if self._queue and request.arrival_us < self._queue[-1].arrival_us:
            raise ValueError("requests must be submitted in arrival order")
        self._queue.append(request)

    def __len__(self) -> int:
        return len(self._queue)

    def drain(self) -> list[MicroBatch]:
        """Cut every queued request into batches and empty the queue."""
        policy = self.policy
        batches: list[MicroBatch] = []
        queue = self._queue
        self._queue = []
        start = 0
        while start < len(queue):
            head = queue[start]
            stop = start + 1
            deadline = head.arrival_us + policy.max_wait_us
            while (
                stop < len(queue)
                and stop - start < policy.max_batch
                and queue[stop].arrival_us <= deadline
            ):
                stop += 1
            members = queue[start:stop]
            if stop - start >= policy.max_batch or stop == len(queue):
                # Cut by capacity or by end of stream: the batch is ready the
                # moment its last member arrived.
                ready_us = members[-1].arrival_us
            else:
                # Cut by the wait budget: the head timed out waiting.
                ready_us = deadline
            batches.append(self._build(members, ready_us))
            start = stop
        return batches

    def _build(self, members: list[InferenceRequest], ready_us: float) -> MicroBatch:
        inputs = np.stack([request.payload for request in members], axis=0)
        target = self.policy.padded_size(len(members))
        pad = target - len(members)
        if pad > 0:
            filler = np.repeat(inputs[-1:], pad, axis=0)
            inputs = np.concatenate([inputs, filler], axis=0)
        return MicroBatch(requests=members, inputs=inputs, pad=pad, ready_us=ready_us)


def uniform_workload(
    inputs: np.ndarray,
    inter_arrival_us: float,
    session_ids: list[str | None] | None = None,
) -> list[InferenceRequest]:
    """Build a constant-rate request stream over a sample array."""
    requests = []
    for index in range(len(inputs)):
        requests.append(
            InferenceRequest(
                request_id=index,
                payload=inputs[index],
                arrival_us=index * float(inter_arrival_us),
                session_id=session_ids[index] if session_ids is not None else None,
            )
        )
    return requests
