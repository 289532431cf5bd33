"""The shielded inference serving runtime.

:class:`ShieldedInferenceService` fuses the pieces the previous PRs built
into one serving path:

* the model runs as an explicit **stage partition** — the shielded stem
  enclave-resident, the trunk in the normal world — with world-switch and
  byte-transfer costs charged per boundary crossing
  (:mod:`repro.core.partition`);
* forwards execute through the **captured-graph** backend
  (:class:`~repro.autodiff.capture.CapturedExecution` on ``no_grad``
  traces): recorded once per batch shape, replayed bit-identically with
  reused buffers;
* requests flow through an arrival-ordered queue and a **dynamic
  micro-batcher** (max-batch / max-wait, padding to cached shapes), and every
  batch runs in order on one in-process :class:`ServingReplica`;
* clients may open **attestation-gated sessions** and send sealed queries
  (:mod:`repro.serve.session`).

Latency accounting runs on two clocks: queue wait is virtual (deterministic
from the workload's arrival times and the batching policy), service time is
measured wall-clock per batch plus the simulated TEE boundary time.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.autodiff.capture import TraceHandles, resolve_execution_backend
from repro.autodiff.context import no_grad
from repro.autodiff.tensor import Tensor
from repro.core.partition import ModelPartition
from repro.core.shielded_model import ShieldedModel
from repro.models.base import ImageClassifier
from repro.serve.batching import (
    BatchingPolicy,
    InferenceReply,
    InferenceRequest,
    MicroBatch,
    MicroBatcher,
)
from repro.serve.session import SealedQuery, ServingSession, SessionManager
from repro.utils.logging import get_logger

_LOGGER = get_logger("serve.runtime")


class ServingReplica:
    """The service's private copy of the served model and its capture cache."""

    def __init__(self, model: ImageClassifier, shielded: bool = True, capture: str = "captured"):
        model.eval()
        self.shielded = shielded
        if shielded:
            self.model = ShieldedModel(model)
            self.partition = self.model.partition
        else:
            self.model = model
            self.partition = ModelPartition(model, enclave=None)
        self.backend = resolve_execution_backend(capture)
        # Identity token keyed into every recording: a replica only ever
        # replays graphs it recorded itself.
        self._token = object()

    def _boundary_stats(self):
        if not self.shielded:
            return None
        return self.model.enclave.boundary.stats

    def _trace(self, array: np.ndarray) -> TraceHandles:
        with no_grad():
            input_tensor = Tensor(array, is_input=True, name="serving.input")
            output = self.model(input_tensor)
        rebinds: list[tuple[object, str, object]] = []
        on_replay = None
        if self.shielded:
            rebinds = [
                (self.model, "last_frontier", self.model.last_frontier),
                (self.model, "last_input", self.model.last_input),
                (self.model, "last_crossings", self.model.last_crossings),
            ]
            # A replay runs no stage code, so re-charge the crossings the
            # recorded eager pass paid — boundary accounting stays identical
            # between eager and captured serving.
            crossings = list(self.model.last_crossings)
            partition = self.partition

            def on_replay() -> None:
                partition.replay_crossings(crossings)

        return TraceHandles(
            objective=output, input=input_tensor, rebinds=rebinds, on_replay=on_replay
        )

    def infer(self, inputs: np.ndarray) -> dict:
        """Run one (padded) batch, returning logits plus cost accounting."""
        boundary = self._boundary_stats()
        switches_before = boundary.switches if boundary is not None else 0
        simulated_before = boundary.simulated_time_us if boundary is not None else 0.0
        capture_before = (
            dict(self.backend.stats.as_dict()) if hasattr(self.backend, "stats") else None
        )
        start = time.perf_counter()
        handles = self.backend.run(self._trace, inputs, key=(self._token,))
        service_s = time.perf_counter() - start
        result = {
            "logits": np.array(handles.objective.data, copy=True),
            "service_s": service_s,
            "world_switches": (boundary.switches - switches_before) if boundary else 0,
            "boundary_us": (boundary.simulated_time_us - simulated_before) if boundary else 0.0,
        }
        if capture_before is not None:
            after = self.backend.stats.as_dict()
            result["capture"] = {
                key: after[key] - capture_before[key] for key in after
            }
        return result


@dataclass
class ServingStats:
    """Aggregate accounting of one serving run."""

    requests: int = 0
    sealed_requests: int = 0
    batches: int = 0
    padded_slots: int = 0
    wall_seconds: float = 0.0
    throughput_rps: float = 0.0
    mean_batch_size: float = 0.0
    latency_us_mean: float = 0.0
    latency_us_p50: float = 0.0
    latency_us_p95: float = 0.0
    latency_us_p99: float = 0.0
    world_switches_total: int = 0
    world_switches_per_request: float = 0.0
    boundary_time_us: float = 0.0
    capture: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ServingReport:
    """Everything one :meth:`ShieldedInferenceService.serve` call produced."""

    replies: list[InferenceReply]
    stats: ServingStats
    partition: list[dict]

    def predictions(self) -> np.ndarray:
        return np.array([reply.prediction for reply in self.replies], dtype=np.int64)

    def logits(self) -> np.ndarray:
        return np.stack([reply.logits for reply in self.replies], axis=0)

    def latencies_us(self) -> np.ndarray:
        return np.array([reply.latency_us for reply in self.replies], dtype=np.float64)


class ShieldedInferenceService:
    """Serve inference queries against a (optionally TEE-shielded) defender."""

    def __init__(
        self,
        model: ImageClassifier,
        policy: BatchingPolicy | None = None,
        shielded: bool = True,
        capture: str = "captured",
    ):
        self.policy = policy if policy is not None else BatchingPolicy()
        self.replica = ServingReplica(copy.deepcopy(model), shielded=shielded, capture=capture)
        self.shielded = shielded
        self.batcher = MicroBatcher(self.policy)
        self.sessions = SessionManager(self.replica.model.enclave) if shielded else None
        self._sealed_seen = 0

    # ------------------------------------------------------------------ #
    # Sessions and request intake
    # ------------------------------------------------------------------ #
    def open_session(self, session_id: str, seed: int = 0) -> ServingSession:
        """Attest the serving enclave to a client; returns its sealed handle."""
        if self.sessions is None:
            raise RuntimeError("sealed sessions require a shielded service")
        return self.sessions.open(session_id, seed=seed)

    def submit(self, request: InferenceRequest) -> None:
        """Enqueue one clear request."""
        self.batcher.submit(request)

    def submit_sealed(
        self, request_id: int, sealed: SealedQuery, arrival_us: float = 0.0
    ) -> None:
        """Unseal a session query at the enclave edge and enqueue it."""
        if self.sessions is None:
            raise RuntimeError("sealed sessions require a shielded service")
        payload = self.sessions.unseal_query(sealed)
        self._sealed_seen += 1
        self.batcher.submit(
            InferenceRequest(
                request_id=request_id,
                payload=payload,
                arrival_us=arrival_us,
                session_id=sealed.session_id,
            )
        )

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, requests: list[InferenceRequest] | None = None) -> ServingReport:
        """Drain the queue (plus ``requests``) through batching and the replica."""
        for request in requests or []:
            self.batcher.submit(request)
        batches = self.batcher.drain()
        replies: list[InferenceReply] = []
        stats = ServingStats()
        stats.sealed_requests = self._sealed_seen
        self._sealed_seen = 0
        capture_totals: dict[str, int] = {}
        start = time.perf_counter()
        for batch in batches:
            result = self.replica.infer(batch.inputs)
            replies.extend(self._assemble(batch, result, stats))
            for key, value in result.get("capture", {}).items():
                capture_totals[key] = capture_totals.get(key, 0) + value
        stats.wall_seconds = time.perf_counter() - start
        stats.requests = len(replies)
        stats.batches = len(batches)
        stats.mean_batch_size = len(replies) / max(len(batches), 1)
        stats.throughput_rps = len(replies) / max(stats.wall_seconds, 1e-9)
        stats.world_switches_per_request = stats.world_switches_total / max(len(replies), 1)
        stats.capture = capture_totals
        if replies:
            latencies = np.array([reply.latency_us for reply in replies])
            stats.latency_us_mean = float(latencies.mean())
            stats.latency_us_p50 = float(np.percentile(latencies, 50))
            stats.latency_us_p95 = float(np.percentile(latencies, 95))
            stats.latency_us_p99 = float(np.percentile(latencies, 99))
        _LOGGER.info(
            "served %d requests in %d batches (%.1f rps, %.2f switches/request)",
            stats.requests,
            stats.batches,
            stats.throughput_rps,
            stats.world_switches_per_request,
        )
        return ServingReport(
            replies=replies, stats=stats, partition=self.replica.partition.describe()
        )

    def _assemble(
        self, batch: MicroBatch, result: dict, stats: ServingStats
    ) -> list[InferenceReply]:
        logits = result["logits"][: len(batch)]
        predictions = logits.argmax(axis=1)
        service_us = result["service_s"] * 1e6 + result["boundary_us"]
        stats.padded_slots += batch.pad
        stats.world_switches_total += result["world_switches"]
        stats.boundary_time_us += result["boundary_us"]
        switches_share = result["world_switches"] / max(len(batch), 1)
        replies = []
        for row, request in enumerate(batch.requests):
            completion_us = batch.ready_us + service_us
            replies.append(
                InferenceReply(
                    request_id=request.request_id,
                    prediction=int(predictions[row]),
                    logits=np.array(logits[row], copy=True),
                    latency_us=completion_us - request.arrival_us,
                    batch_size=len(batch),
                    world_switches=switches_share,
                    session_id=request.session_id,
                )
            )
        return replies

    def seal_reply(self, reply: InferenceReply):
        """Seal one reply's logits for its session's client."""
        if self.sessions is None or reply.session_id is None:
            raise RuntimeError("reply does not belong to a sealed session")
        return self.sessions.seal_reply(reply.session_id, reply.logits)
