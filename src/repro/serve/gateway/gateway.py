"""The continuous-batching serving gateway.

Two front doors over the same scheduling core
(:class:`~repro.serve.gateway.continuous.GatewayCore`):

* :class:`ServingGateway` — the **simulation**: an open-loop Poisson
  workload flows through admission and per-stage queues onto a fixed
  replica pool on the virtual clock, with stage executions priced by the
  FLOP-calibrated :class:`~repro.serve.gateway.costs.StageCostModel`.  No
  tensor work runs, so offered-load sweeps finish in seconds and the
  resulting latency histograms are bit-reproducible (same seed ⇒ same
  digest).

* :class:`GatewayService` — the **real-execution mode**: actual
  :class:`~repro.serve.batching.InferenceRequest` payloads run through the
  same scheduler against a real (optionally shielded) partition.  Each
  cohort runs as **one batched stage call**: the members' ``(1, ...)``
  values are stacked on axis 0, the stage runs once, and each member gets
  its row back.  A secure stage opens one shield scope per cohort, and the
  cohort pays exactly one enter/exit switch pair per secure edge (the
  crossing amortisation that makes batching worth anything in a TEE),
  charged to the real enclave boundary with the cohort's summed payload
  bytes.

**Parity contract.**  The BLAS kernels are not row-bit-stable across batch
sizes (``Linear`` flattens ``(B, T, D)`` into one GEMM whose blocking
depends on ``B``), so a batched cohort's logits are not byte-equal to
single-request eager ones.  What every reply keeps instead, against a
batch-of-one eager forward of the same payload through the same partition:

1. the same argmax;
2. ``max|Δlogits| <= PARITY_ULPS * eps(dtype) * max|eager logits|``;
3. byte-identity when its cohort has one member (``max_batch=1`` included),
   because that cohort *is* the eager forward.

``PARITY_ULPS`` was chosen from measurement: over the model zoo at float32
and float64, cohorts of 2-8 under both policies stayed within 32 ulps of
the reply's largest eager logit (the MLP's 3072-wide GEMM is the worst; the
convolutional and ViT defenders stay within 6).  At float64 the bound is
below 6e-14 relative.

Sealed queries are unsealed *lazily at first execution* — after the
admission decision — so a shed request's ciphertext is never decrypted, and
the sealed handshake (``open_session``) is what attests the session to the
admission controller in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autodiff.tensor import Tensor, get_default_dtype
from repro.serve.batching import InferenceReply, InferenceRequest
from repro.serve.gateway.admission import AdmissionController
from repro.serve.gateway.continuous import GatewayCore, GatewayPolicy, GatewayRequest
from repro.serve.gateway.costs import StageCostModel, calibrate_stage_costs
from repro.serve.gateway.events import EventLoop
from repro.serve.gateway.latency import GatewayMetrics
from repro.serve.gateway.loadgen import OpenLoopWorkload
from repro.serve.session import SealedQuery, ServingSession, SessionManager
from repro.tee.errors import AttestationError, SecureChannelError
from repro.utils.logging import get_logger

_LOGGER = get_logger("serve.gateway")

#: The parity contract's constant: a batched reply's logits stay within
#: ``PARITY_ULPS * eps(dtype) * max|eager logits|`` of single-request eager.
PARITY_ULPS = 256


@dataclass
class GatewayReport:
    """Everything one gateway run produced."""

    policy: str
    metrics: dict
    capacity_rps: float
    offered_rps: float
    stages: list[dict]
    replies: list[InferenceReply] = field(default_factory=list)
    #: Width of a reply's logits (0 for a simulation, which has no replies).
    num_classes: int = 0

    def percentiles(self) -> dict[str, float]:
        return dict(self.metrics["latency"])

    def digest(self) -> str:
        return self.metrics["latency_digest"]

    def predictions(self) -> np.ndarray:
        return np.array([reply.prediction for reply in self.replies], dtype=np.int64)

    def logits(self) -> np.ndarray:
        if not self.replies:
            return np.empty((0, self.num_classes), dtype=get_default_dtype())
        return np.stack([reply.logits for reply in self.replies], axis=0)

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "capacity_rps": self.capacity_rps,
            "offered_rps": self.offered_rps,
            "metrics": self.metrics,
            "stages": list(self.stages),
        }


def _drain(loop: EventLoop, offer_next, count: int) -> None:
    """Pump ``count`` arrivals through the loop, then run it dry.

    Arrivals are scheduled one ahead of the clock (an event chain instead of
    every arrival pre-pushed onto the heap), so the live heap stays
    proportional to the in-flight population, not the workload size.
    """
    index = 0

    def pump() -> None:
        nonlocal index
        here = index
        index += 1
        offer_next(here, pump if index < count else None)

    if count > 0:
        offer_next(-1, pump)
    loop.run()
    # ``pump`` refers to itself; emptying its cell breaks that cycle, so the
    # drain's requests and replies are freed on return, not at the next
    # cyclic garbage collection.
    del pump


class ServingGateway:
    """Deterministic gateway simulation over a stage cost model."""

    def __init__(self, costs: StageCostModel, policy: GatewayPolicy | None = None):
        self.costs = costs
        self.policy = policy if policy is not None else GatewayPolicy()

    def capacity_rps(self, replicas: int | None = None) -> float:
        return self.costs.capacity_rps(
            replicas if replicas is not None else self.policy.replicas,
            self.policy.max_batch,
        )

    def simulate(self, workload: OpenLoopWorkload) -> GatewayReport:
        """Run one open-loop workload to completion on the virtual clock.

        Every session of the workload counts as having completed the sealed
        handshake; :class:`GatewayService` is where unattested requests shed.
        """
        loop = EventLoop()
        core = GatewayCore(loop, self.costs, self.policy)
        core.admission.attest_below(workload.num_sessions)
        arrival_us = workload.arrival_us
        session_index = workload.session_index

        def offer(previous: int, pump) -> None:
            if previous >= 0:
                request = GatewayRequest(
                    previous,
                    int(session_index[previous]),
                    float(arrival_us[previous]),
                )
                core.offer(request)
            if pump is not None:
                loop.at(float(arrival_us[previous + 1]), pump)

        _drain(loop, offer, len(workload))
        return self._report(loop, core, workload.offered_rps)

    def _report(self, loop: EventLoop, core: GatewayCore, offered_rps: float) -> GatewayReport:
        metrics = core.metrics
        metrics.horizon_us = loop.now_us
        report = GatewayReport(
            policy=self.policy.policy,
            metrics=metrics.as_dict(),
            capacity_rps=self.capacity_rps(),
            offered_rps=float(offered_rps),
            stages=self.costs.describe(),
        )
        _LOGGER.info(
            "gateway[%s]: %d offered, %d completed, shed=%s, p99=%.0fus",
            self.policy.policy,
            metrics.offered,
            metrics.completed,
            report.metrics["shed"],
            report.metrics["latency"]["p99_us"],
        )
        return report


class GatewayService:
    """Real-execution gateway: the simulator's scheduler, actual tensors.

    The service owns one (optionally shielded) partition.  Requests flow
    through the same admission → stage-queue → cohort machinery as the
    simulation; when a cohort reaches a stage, the stage runs once over the
    stacked cohort while the enclave boundary is charged one enter/exit
    pair for the whole cohort.  A payload without the model's
    ``input_shape`` is rejected alone, like a sealed query that does not
    open, so one malformed query cannot fail its cohort's stacked call.

    Replies keep the module's parity contract against single-request eager,
    under every policy: equal argmax, logits within
    ``PARITY_ULPS * eps(dtype) * max|eager logits|``, and byte-identical
    logits for a cohort of one.
    """

    def __init__(
        self,
        model,
        policy: GatewayPolicy | None = None,
        shielded: bool = True,
        costs: StageCostModel | None = None,
        gflops: float = 2.0,
    ):
        from repro.core.partition import ModelPartition
        from repro.core.shielded_model import ShieldedModel

        model.eval()
        self._num_classes = model.num_classes
        self._input_shape = tuple(model.input_shape)
        self.policy = policy if policy is not None else GatewayPolicy()
        self.shielded = shielded
        if shielded:
            self.model = ShieldedModel(model)
            self.partition = self.model.partition
            self.enclave = self.model.enclave
            self.sessions: SessionManager | None = SessionManager(self.enclave)
        else:
            self.model = model
            self.partition = ModelPartition(model, enclave=None)
            self.enclave = None
            self.sessions = None
        self.admission = AdmissionController(self.policy.admission)
        self._costs = costs
        self._gflops = gflops
        self._secure = [
            bool(self.enclave is not None and stage.shield_target)
            for stage in self.partition.stages
        ]
        self._pending: list[tuple[int, object, float, str | None]] = []
        self.sealed_requests = 0

    # ------------------------------------------------------------------ #
    # Sessions and intake
    # ------------------------------------------------------------------ #
    def open_session(self, session_id: str, seed: int = 0) -> ServingSession:
        """Run the sealed handshake; only then is the session admissible."""
        if self.sessions is None:
            raise RuntimeError("sealed sessions require a shielded gateway")
        session = self.sessions.open(session_id, seed=seed)
        self.admission.attest(session_id)
        return session

    def submit(self, request: InferenceRequest) -> None:
        """Enqueue one clear request for the next :meth:`serve` drain."""
        session_id = request.session_id
        if not self.shielded and session_id is None:
            # A clear deployment has no handshake to gate on: anonymous
            # requests are auto-attested under a per-request key.
            session_id = f"anon-{request.request_id}"
            self.admission.attest(session_id)
        self._pending.append(
            (request.request_id, request.payload, request.arrival_us, session_id)
        )

    def submit_sealed(
        self, request_id: int, sealed: SealedQuery, arrival_us: float = 0.0
    ) -> None:
        """Enqueue a sealed query; it is decrypted only if admitted."""
        if self.sessions is None:
            raise RuntimeError("sealed sessions require a shielded gateway")
        self._pending.append((request_id, sealed, arrival_us, sealed.session_id))

    def seal_reply(self, reply: InferenceReply):
        if self.sessions is None or reply.session_id is None:
            raise RuntimeError("reply does not belong to a sealed session")
        return self.sessions.seal_reply(reply.session_id, reply.logits)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def costs(self) -> StageCostModel:
        if self._costs is None:
            if not self._pending:
                raise RuntimeError("cost calibration needs at least one pending request")
            sample = self._payload_array(self._pending[0][1])
            boundary = self.enclave.boundary.cost_model if self.enclave is not None else None
            self._costs = calibrate_stage_costs(
                self.partition, sample, gflops=self._gflops, boundary=boundary
            )
        return self._costs

    def _payload_array(self, payload) -> np.ndarray:
        if isinstance(payload, SealedQuery):
            # Calibration must not decrypt anything: synthesize a zero
            # payload of the sealed query's declared shape.
            return np.zeros(payload.shape, dtype=np.dtype(payload.dtype))
        return np.asarray(payload)

    def serve(self, requests: list[InferenceRequest] | None = None) -> GatewayReport:
        """Drain pending (plus ``requests``) through the gateway scheduler."""
        from repro.autodiff.context import no_grad

        if self.enclave is not None:
            # Same rule as ShieldedModel.forward: each drain starts from an
            # empty enclave, or every request's stem regions stay resident.
            self.enclave.flush_regions()
        for request in requests or []:
            self.submit(request)
        if self._costs is None and not self._pending:
            # Nothing to calibrate on and nothing to serve.
            return GatewayReport(
                policy=self.policy.policy,
                metrics=GatewayMetrics(slo_us=self.policy.slo_us).as_dict(),
                capacity_rps=0.0,
                offered_rps=0.0,
                stages=self.partition.describe(),
                num_classes=self._num_classes,
            )
        costs = self.costs()
        pending = sorted(self._pending, key=lambda item: (item[2], item[0]))
        self._pending = []
        loop = EventLoop()
        replies: dict[int, InferenceReply] = {}

        def on_complete(request: GatewayRequest, latency_us: float) -> None:
            logits = np.array(request.value.data[0], copy=True)
            replies[request.request_id] = InferenceReply(
                request_id=request.request_id,
                prediction=int(logits.argmax()),
                logits=logits,
                latency_us=latency_us,
                batch_size=request.entry_size,
                world_switches=0.0,
                session_id=request.session_key,
            )

        core = GatewayCore(
            loop,
            costs,
            self.policy,
            admission=self.admission,
            stage_executor=self._execute_stage,
            on_complete=on_complete,
        )
        order: list[int] = []

        def offer(previous: int, pump) -> None:
            if previous >= 0:
                request_id, payload, arrival_us, session_id = pending[previous]
                request = GatewayRequest(request_id, session_id, arrival_us, payload=payload)
                if core.offer(request) is None:
                    order.append(request_id)
            if pump is not None:
                loop.at(float(pending[previous + 1][2]), pump)

        with no_grad():
            _drain(loop, offer, len(pending))

        metrics = core.metrics
        metrics.horizon_us = loop.now_us
        switches_share = metrics.world_switches / max(metrics.completed, 1)
        ordered = [replies[request_id] for request_id in order if request_id in replies]
        for reply in ordered:
            reply.world_switches = switches_share
        report = GatewayReport(
            policy=self.policy.policy,
            metrics=metrics.as_dict(),
            capacity_rps=costs.capacity_rps(self.policy.replicas, self.policy.max_batch),
            offered_rps=0.0,
            stages=self.partition.describe(),
            replies=ordered,
            num_classes=self._num_classes,
        )
        return report

    # ------------------------------------------------------------------ #
    # Real stage execution (one batched call per cohort)
    # ------------------------------------------------------------------ #
    def _execute_stage(
        self, stage_index: int, cohort: list[GatewayRequest]
    ) -> list[GatewayRequest]:
        """Run one stage over a cohort; returns the members it rejected.

        A member whose sealed query fails to open (tampered ciphertext, or a
        session closed since submission) or whose payload does not have the
        model's input shape is removed from ``cohort`` before the enclave
        entry is charged.  The survivors' values are stacked on axis 0 and
        the stage runs once, inside one shield scope when it is secure; each
        member then gets its own ``(1, ...)`` row back.
        """
        stage = self.partition.stages[stage_index]
        secure = self._secure[stage_index]
        previous_secure = self._secure[stage_index - 1] if stage_index > 0 else False
        next_secure = (
            self._secure[stage_index + 1] if stage_index + 1 < len(self._secure) else False
        )
        rejected: list[GatewayRequest] = []
        for request in cohort:
            if request.value is None:
                payload = request.payload
                request.payload = None
                if isinstance(payload, SealedQuery):
                    # Admission happened before any execution: only now is
                    # the ciphertext of an *admitted* request opened.
                    try:
                        payload = self.sessions.unseal_query(payload)
                    except (SecureChannelError, AttestationError):
                        rejected.append(request)
                        continue
                    self.sealed_requests += 1
                array = np.asarray(payload)
                if array.shape != self._input_shape:
                    rejected.append(request)
                    continue
                request.value = Tensor(array[None], is_input=True, name="gateway.input")
        if rejected:
            cohort[:] = [request for request in cohort if request.value is not None]
        if not cohort:
            return rejected
        boundary = self.enclave.boundary if self.enclave is not None else None
        batch = _stack([request.value for request in cohort])
        if secure and not previous_secure and boundary is not None:
            # One amortised switch carries the whole cohort into the enclave.
            boundary.enter_secure_world(batch.nbytes)
        if secure:
            with self.enclave.shield_scope(stage.name):
                output = stage.run(batch)
        else:
            output = stage.run(batch)
        if secure and not next_secure and boundary is not None:
            boundary.exit_secure_world(output.nbytes)
            # The value crossing back is public from here on, as in
            # ModelPartition.run.
            output.shielded = False
        for request, row in zip(cohort, _rows(output, len(cohort))):
            request.value = row
        return rejected


def _stack(values: list[Tensor]) -> Tensor:
    """One batch from the cohort's ``(1, ...)`` values; a lone value as is."""
    if len(values) == 1:
        return values[0]
    first = values[0]
    batch = Tensor(
        np.concatenate([value.data for value in values]),
        is_input=first.is_input,
        name=first.name,
    )
    batch.shielded = first.shielded
    return batch


def _rows(output: Tensor, count: int) -> list[Tensor]:
    """Split a stage output back into ``count`` per-member ``(1, ...)`` values.

    The rows are views built outside any shield scope, so the enclave's
    region accounting still counts the batched output once.
    """
    if count == 1:
        return [output]
    rows = []
    for index in range(count):
        row = Tensor(output.data[index : index + 1], name=output.name)
        row.shielded = output.shielded
        rows.append(row)
    return rows
