"""The gateway's scheduling core: continuous batching vs static waves.

Two policies share one event-driven core:

* ``continuous`` — work is queued *per partition stage*.  Whenever a replica
  frees up it grabs the deepest non-empty stage queue and runs a cohort of
  up to ``max_batch`` requests through that one stage.  A request therefore
  joins whatever batch is forming at its current stage boundary — a newly
  admitted request merges with earlier traffic at the secure stem's door
  (amortising the TEE crossing) instead of waiting for the previous wave's
  entire forward to drain.  Service quanta are single stages, so head-of-line
  blocking is bounded by one stage, not one forward.

* ``static`` — a wave drainer on the same virtual clock, kept as the
  parity baseline: batches are cut from the arrival queue by the
  max-batch / max-wait rule, dispatched one per replica in a *wave*, and the
  next wave starts only when the whole previous wave finished.

The core itself never touches tensors: service times come from the
:class:`~repro.serve.gateway.costs.StageCostModel`, so a pure simulation can
push 10^5+ requests per second of host time.  A ``stage_executor`` hook lets
the real-execution mode run actual partition stages for each cohort — same
scheduler, same accounting, real logits — and reject the members whose sealed
query does not open, which leave their cohort before it is priced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

from repro.serve.gateway.admission import AdmissionController, AdmissionPolicy
from repro.serve.gateway.costs import StageCostModel
from repro.serve.gateway.events import EventLoop
from repro.serve.gateway.latency import GatewayMetrics

GATEWAY_POLICIES = ("continuous", "static")


@dataclass(frozen=True)
class GatewayPolicy:
    """Scheduling and protection knobs of one gateway deployment."""

    policy: str = "continuous"
    max_batch: int = 8
    #: Static-policy batch cut rule (the wave drainer's max-wait budget).
    max_wait_us: float = 4000.0
    replicas: int = 1
    slo_us: float = 50_000.0
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)

    def __post_init__(self):
        if self.policy not in GATEWAY_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected {GATEWAY_POLICIES}")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")


class GatewayRequest:
    """One in-flight request (kept deliberately tiny: 10^6 may be live)."""

    __slots__ = (
        "request_id",
        "session_key",
        "arrival_us",
        "stage",
        "entry_size",
        "payload",
        "value",
    )

    def __init__(self, request_id: int, session_key, arrival_us: float, payload=None):
        self.request_id = request_id
        self.session_key = session_key
        self.arrival_us = float(arrival_us)
        self.stage = 0
        self.entry_size = 0
        self.payload = payload
        self.value = None


class GatewayCore:
    """Event-driven scheduler executing one policy over the stage pipeline."""

    def __init__(
        self,
        loop: EventLoop,
        costs: StageCostModel,
        policy: GatewayPolicy,
        admission: AdmissionController | None = None,
        stage_executor: Callable[[int, list[GatewayRequest]], list[GatewayRequest]] | None = None,
        on_complete: Callable[[GatewayRequest, float], None] | None = None,
    ):
        self.loop = loop
        self.costs = costs
        self.policy = policy
        self.admission = admission if admission is not None else AdmissionController(policy.admission)
        self.metrics = GatewayMetrics(slo_us=policy.slo_us)
        self.stage_executor = stage_executor
        self.on_complete = on_complete
        self.queues: list[deque[GatewayRequest]] = [deque() for _ in costs.stages]
        # Continuous-mode replica pool: an id-ordered idle heap over the
        # fixed replica count, so dispatch order never depends on
        # completion ties.
        self._idle: list[int] = list(range(policy.replicas))
        # Static-mode wave bookkeeping.
        self._static_pending = 0
        self._static_wakeup_us = -1.0

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #
    def offer(self, request: GatewayRequest) -> str | None:
        """Admit or shed one arrival; returns the shed reason (None = admitted)."""
        self.metrics.offered += 1
        reason = self.admission.offer(request.session_key)
        if reason is not None:
            self.metrics.record_shed(reason)
            return reason
        self.metrics.admitted += 1
        self.queues[0].append(request)
        if self.policy.policy == "continuous":
            self._dispatch()
        else:
            self._try_wave()
        return None

    # ------------------------------------------------------------------ #
    # Continuous batching
    # ------------------------------------------------------------------ #
    def _deepest_ready(self) -> int | None:
        for index in range(len(self.queues) - 1, -1, -1):
            if self.queues[index]:
                return index
        return None

    def _dispatch(self) -> None:
        while self._idle:
            stage_index = self._deepest_ready()
            if stage_index is None:
                return
            replica = heappop(self._idle)
            queue = self.queues[stage_index]
            cohort = [queue.popleft() for _ in range(min(self.policy.max_batch, len(queue)))]
            self._start_cohort(replica, stage_index, cohort)

    def _start_cohort(self, replica: int, stage_index: int, cohort: list[GatewayRequest]) -> None:
        self._execute(stage_index, cohort)
        if not cohort:
            # Every member was rejected: the replica is free at once.
            self.loop.after(0.0, lambda: self._complete_cohort(replica, cohort))
            return
        size = len(cohort)
        metrics = self.metrics
        metrics.stage_executions += 1
        if stage_index == 0:
            for request in cohort:
                request.entry_size = size
            metrics.batches += 1
            metrics.batched_samples += size
        service_us = self.costs.stage(stage_index).service_us(size)
        switches, crossing_us = self.costs.stage_crossings(stage_index, size)
        out_bytes = (
            self.costs.stage(stage_index + 1).input_nbytes_per_sample
            if stage_index + 1 < len(self.costs.stages)
            else self.costs.stage(stage_index).input_nbytes_per_sample
        )
        exit_switches, exit_us = self.costs.exit_crossing(stage_index, size, out_bytes)
        switches += exit_switches
        crossing_us += exit_us
        metrics.world_switches += switches
        metrics.boundary_time_us += crossing_us
        total_us = service_us + crossing_us
        metrics.replica_busy_us += total_us
        self.loop.after(total_us, lambda: self._complete_cohort(replica, cohort))

    def _complete_cohort(self, replica: int, cohort: list[GatewayRequest]) -> None:
        for request in cohort:
            request.stage += 1
            if request.stage >= len(self.costs.stages):
                self._complete_request(request)
            else:
                self.queues[request.stage].append(request)
        heappush(self._idle, replica)
        self._dispatch()

    # ------------------------------------------------------------------ #
    # Static waves
    # ------------------------------------------------------------------ #
    def _try_wave(self) -> None:
        if self._static_pending > 0:
            return
        queue = self.queues[0]
        batches: list[list[GatewayRequest]] = []
        while queue and len(batches) < self.policy.replicas:
            head = queue[0]
            if len(queue) >= self.policy.max_batch:
                count = self.policy.max_batch
            elif self.loop.now_us >= head.arrival_us + self.policy.max_wait_us:
                count = min(len(queue), self.policy.max_batch)
            else:
                deadline = head.arrival_us + self.policy.max_wait_us
                if self._static_wakeup_us < deadline:
                    self._static_wakeup_us = deadline
                    self.loop.at(deadline, self._try_wave)
                break
            batches.append([queue.popleft() for _ in range(count)])
        if not batches:
            return
        self._static_pending = len(batches)
        for batch in batches:
            self._start_static_batch(batch)

    def _start_static_batch(self, batch: list[GatewayRequest]) -> None:
        for stage_index in range(len(self.costs.stages)):
            self._execute(stage_index, batch)
        if not batch:
            self.loop.after(0.0, lambda: self._complete_static_batch(batch))
            return
        size = len(batch)
        metrics = self.metrics
        metrics.batches += 1
        metrics.batched_samples += size
        metrics.stage_executions += len(self.costs.stages)
        for request in batch:
            request.entry_size = size
        switches, crossing_us = self.costs.forward_crossings(size)
        metrics.world_switches += switches
        metrics.boundary_time_us += crossing_us
        total_us = self.costs.forward_us(size)
        metrics.replica_busy_us += total_us
        self.loop.after(total_us, lambda: self._complete_static_batch(batch))

    def _complete_static_batch(self, batch: list[GatewayRequest]) -> None:
        for request in batch:
            request.stage = len(self.costs.stages)
            self._complete_request(request)
        self._static_pending -= 1
        if self._static_pending == 0:
            self._try_wave()

    # ------------------------------------------------------------------ #
    # Real execution and completion
    # ------------------------------------------------------------------ #
    def _execute(self, stage_index: int, cohort: list[GatewayRequest]) -> None:
        """Run one stage of a cohort through the executor, if there is one.

        The executor removes (in place) and returns the members it could not
        open; each is rejected here before any cost is priced, so the cohort
        that is charged is the cohort that ran.
        """
        if self.stage_executor is None:
            return
        for request in self.stage_executor(stage_index, cohort):
            self.metrics.rejected += 1
            self.admission.release(request.session_key)

    def _complete_request(self, request: GatewayRequest) -> None:
        latency_us = self.loop.now_us - request.arrival_us
        metrics = self.metrics
        metrics.completed += 1
        metrics.latency.record(latency_us)
        if latency_us <= self.policy.slo_us:
            metrics.within_slo += 1
        self.admission.release(request.session_key)
        if self.on_complete is not None:
            self.on_complete(request, latency_us)
