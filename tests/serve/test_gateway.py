"""Tests for the continuous-batching serving gateway.

Covers the gateway's acceptance bar from three sides:

* **determinism** — same seed + offered load ⇒ byte-identical latency
  histograms across repeated runs;
* **admission accounting** — ``offered == admitted + shed`` with the shed
  reasons decided in documented order;
* **correctness under continuous batching** — real-execution logits keep
  the gateway's parity contract against single-request eager forwards
  under continuous batching and the static wave drainer (byte-identical
  for a cohort of one), and the simulated world-switch count matches what
  the real enclave boundary charges.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autodiff import CapturedExecution, Tensor, TraceHandles, no_grad
from repro.autodiff.tensor import get_default_dtype, set_default_dtype
from repro.models.simple import SimpleCNN, SimpleCNNConfig
from repro.serve.batching import InferenceReply, InferenceRequest
from repro.serve.gateway import (
    AdmissionController,
    AdmissionPolicy,
    EventLoop,
    GatewayCore,
    GatewayPolicy,
    GatewayRequest,
    GatewayService,
    LatencyHistogram,
    SHED_REASONS,
    ServingGateway,
    StageCost,
    StageCostModel,
    poisson_workload,
)
from repro.tee.errors import AttestationError, SecureChannelError
from repro.utils.rng import set_global_seed
from tests.serving_parity import assert_serving_parity


@pytest.fixture(autouse=True)
def _seed():
    set_global_seed(20230913)


def _model() -> SimpleCNN:
    return SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=4, widths=(4, 8), image_size=8))


def _tampered(sealed):
    """The same sealed query with its first ciphertext byte flipped."""
    ciphertext = sealed.message.ciphertext
    ciphertext = bytes([ciphertext[0] ^ 0xFF]) + ciphertext[1:]
    return replace(sealed, message=replace(sealed.message, ciphertext=ciphertext))


def _eager(model, payloads) -> np.ndarray:
    """Single-request eager logits: one batch-of-one forward per payload."""
    with no_grad():
        return np.stack(
            [model(Tensor(np.asarray(payload)[None], is_input=True)).data[0]
             for payload in payloads]
        )


def _costs(secure_first: bool = True) -> StageCostModel:
    return StageCostModel(
        stages=[
            StageCost("stem", secure_first, base_us=50.0, per_sample_us=120.0,
                      input_nbytes_per_sample=4096),
            StageCost("trunk", False, base_us=30.0, per_sample_us=80.0,
                      input_nbytes_per_sample=2048),
        ]
    )


# --------------------------------------------------------------------------- #
# Event loop
# --------------------------------------------------------------------------- #
class TestEventLoop:
    def test_strict_time_then_fifo_order(self):
        loop = EventLoop()
        order = []
        loop.at(10.0, lambda: order.append("b"))
        loop.at(5.0, lambda: order.append("a"))
        loop.at(10.0, lambda: order.append("c"))
        assert loop.run() == 3
        assert order == ["a", "b", "c"]
        assert loop.now_us == 10.0

    def test_rejects_scheduling_in_the_past(self):
        loop = EventLoop(start_us=100.0)
        with pytest.raises(ValueError, match="already at"):
            loop.at(50.0, lambda: None)
        with pytest.raises(ValueError, match="non-negative"):
            loop.after(-1.0, lambda: None)

    def test_run_until_advances_the_clock_exactly(self):
        loop = EventLoop()
        loop.at(500.0, lambda: None)
        assert loop.run(until_us=200.0) == 0
        assert loop.now_us == 200.0
        assert loop.run() == 1
        assert loop.now_us == 500.0

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        seen = []
        loop.at(1.0, lambda: loop.after(1.0, lambda: seen.append(loop.now_us)))
        loop.run()
        assert seen == [2.0]


# --------------------------------------------------------------------------- #
# Latency histogram
# --------------------------------------------------------------------------- #
class TestLatencyHistogram:
    def test_quantiles_are_monotone_and_bounded(self):
        hist = LatencyHistogram()
        for value in [100.0, 200.0, 400.0, 800.0, 10_000.0]:
            hist.record(value)
        p = hist.percentiles()
        assert p["p50_us"] <= p["p90_us"] <= p["p99_us"] <= p["p999_us"] <= p["max_us"]
        assert p["max_us"] == 10_000.0
        assert p["mean_us"] == pytest.approx(2300.0)

    def test_quantile_error_bounded_by_bin_growth(self):
        hist = LatencyHistogram(bins_per_octave=8)
        for _ in range(1000):
            hist.record(5000.0)
        # The upper bin edge is at most one growth factor above the value.
        assert 5000.0 <= hist.quantile(0.99) <= 5000.0 * 2 ** (1 / 8)

    def test_digest_is_content_addressed(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for value in [10.0, 20.0, 30.0]:
            a.record(value)
            b.record(value)
        assert a.digest() == b.digest()
        b.record(40.0)
        assert a.digest() != b.digest()

    def test_merge_accumulates(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(100.0)
        b.record(900.0)
        a.merge(b)
        assert a.total == 2
        assert a.max_us == 900.0
        with pytest.raises(ValueError, match="bin layouts"):
            a.merge(LatencyHistogram(bins_per_octave=4))


# --------------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------------- #
class TestLoadGeneration:
    def test_poisson_is_seed_deterministic(self):
        a = poisson_workload(1000.0, requests=500, num_sessions=100, seed_name="t.a")
        b = poisson_workload(1000.0, requests=500, num_sessions=100, seed_name="t.a")
        c = poisson_workload(1000.0, requests=500, num_sessions=100, seed_name="t.b")
        np.testing.assert_array_equal(a.arrival_us, b.arrival_us)
        np.testing.assert_array_equal(a.session_index, b.session_index)
        assert not np.array_equal(a.arrival_us, c.arrival_us)

    def test_poisson_shape_and_rate(self):
        workload = poisson_workload(2000.0, requests=2000, num_sessions=50, seed_name="t.rate")
        assert len(workload) == 2000
        assert np.all(np.diff(workload.arrival_us) >= 0)
        assert workload.session_index.max() < 50
        # Mean inter-arrival within 10% of 1/rate over 2000 draws.
        mean_us = workload.horizon_us() / len(workload)
        assert mean_us == pytest.approx(500.0, rel=0.1)

    def test_poisson_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate_rps"):
            poisson_workload(0.0, requests=10, num_sessions=1)
        with pytest.raises(ValueError, match="requests"):
            poisson_workload(100.0, requests=0, num_sessions=1)


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_decision_order(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_depth=2, max_per_session=1))
        assert controller.offer("never-attested") == "unattested"
        controller.attest("a")
        controller.attest("b")
        controller.attest("c")
        assert controller.offer("a") is None
        assert controller.offer("a") == "session_quota"
        assert controller.offer("b") is None
        # Queue full is checked before the per-session quota.
        assert controller.offer("c") == "queue_full"
        assert set(controller.shed) <= set(SHED_REASONS)

    def test_offered_equals_admitted_plus_shed(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_depth=3, max_per_session=2))
        controller.attest("s")
        for _ in range(10):
            controller.offer("s")
        assert controller.offered == controller.admitted + sum(controller.shed.values())

    def test_release_frees_quota_and_depth(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_depth=8, max_per_session=1))
        controller.attest("s")
        assert controller.offer("s") is None
        assert controller.offer("s") == "session_quota"
        controller.release("s")
        assert controller.session_in_flight("s") == 0
        assert controller.offer("s") is None

    def test_release_without_admit_raises(self):
        controller = AdmissionController()
        with pytest.raises(ValueError, match="release"):
            controller.release("s")

    def test_attest_below_is_a_range_predicate(self):
        controller = AdmissionController()
        controller.attest_below(1000)
        assert controller.is_attested(0)
        assert controller.is_attested(999)
        assert not controller.is_attested(1000)
        assert not controller.is_attested(-1)
        assert not controller.is_attested(None)
        controller.attest("named")
        assert controller.is_attested("named")


# --------------------------------------------------------------------------- #
# Stage cost model
# --------------------------------------------------------------------------- #
class TestStageCostModel:
    def test_crossings_charge_entry_and_exit_once(self):
        costs = _costs(secure_first=True)
        switches, _ = costs.stage_crossings(0, batch=4)
        assert switches == 1  # clear -> secure entry
        switches, _ = costs.stage_crossings(1, batch=4)
        assert switches == 0  # the exit is charged by exit_crossing, not here
        switches, _ = costs.exit_crossing(0, batch=4, output_nbytes_per_sample=2048)
        assert switches == 1
        assert costs.forward_crossings(4) == costs.forward_crossings(4)
        total_switches, _ = costs.forward_crossings(4)
        assert total_switches == 2  # one enter + one exit per forward

    def test_clear_partition_never_crosses(self):
        costs = _costs(secure_first=False)
        assert costs.forward_crossings(8) == (0, 0.0)
        assert costs.forward_us(8) == pytest.approx(
            sum(stage.service_us(8) for stage in costs.stages)
        )

    def test_capacity_scales_with_replicas(self):
        costs = _costs()
        assert costs.capacity_rps(2, 8) == pytest.approx(2 * costs.capacity_rps(1, 8))
        assert costs.capacity_rps(1, 8) > 0


# --------------------------------------------------------------------------- #
# Simulation: determinism, shedding, policy comparison
# --------------------------------------------------------------------------- #
class TestGatewaySimulation:
    def _workload(self, load: float = 0.9, requests: int = 2000):
        costs = _costs()
        capacity = costs.capacity_rps(2, 4)
        return costs, poisson_workload(
            rate_rps=load * capacity, requests=requests, num_sessions=1000,
            seed_name="gateway.test",
        )

    def _policy(self, policy: str = "continuous", **kwargs) -> GatewayPolicy:
        kwargs.setdefault("max_batch", 4)
        kwargs.setdefault("replicas", 2)
        kwargs.setdefault("slo_us", 30_000.0)
        return GatewayPolicy(policy=policy, **kwargs)

    def test_repeated_runs_are_byte_identical(self):
        costs, workload = self._workload()
        digests = set()
        for _ in range(2):
            report = ServingGateway(costs, self._policy()).simulate(workload)
            digests.add(report.digest())
        assert len(digests) == 1

    def test_shed_accounting_conserves_requests(self):
        costs, workload = self._workload(load=1.5)
        policy = self._policy(admission=AdmissionPolicy(max_queue_depth=32, max_per_session=2))
        report = ServingGateway(costs, policy).simulate(workload)
        metrics = report.metrics
        shed_total = sum(metrics["shed"].values())
        assert metrics["offered"] == len(workload)
        assert metrics["offered"] == metrics["admitted"] + shed_total
        assert metrics["completed"] == metrics["admitted"]
        assert metrics["shed"].get("queue_full", 0) > 0
        assert "unattested" not in metrics["shed"]

    def test_continuous_beats_static_p99_at_high_load(self):
        costs, workload = self._workload(load=0.95)
        continuous = ServingGateway(costs, self._policy("continuous")).simulate(workload)
        static = ServingGateway(costs, self._policy("static")).simulate(workload)
        assert continuous.percentiles()["p99_us"] <= static.percentiles()["p99_us"]

    def test_report_shape(self):
        costs, workload = self._workload(load=0.5, requests=300)
        report = ServingGateway(costs, self._policy()).simulate(workload)
        payload = report.as_dict()
        assert payload["policy"] == "continuous"
        assert payload["capacity_rps"] > 0
        assert payload["metrics"]["latency"]["p99_us"] >= payload["metrics"]["latency"]["p50_us"]
        assert len(payload["stages"]) == 2

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            GatewayPolicy(policy="chaotic")

    @pytest.mark.parametrize("knob", ["max_batch", "replicas"])
    def test_rejects_non_positive_sizes(self, knob):
        with pytest.raises(ValueError, match=knob):
            GatewayPolicy(**{knob: 0})


# --------------------------------------------------------------------------- #
# Scheduling core: cohort sizes, static waits, rejection at first execution
# --------------------------------------------------------------------------- #
class TestGatewayCore:
    def _run(self, policy: str, arrivals, bad=(), executor=True, **kwargs):
        """Offer one request per arrival time to a fresh core and run it dry.

        The stub executor rejects the ``bad`` request ids at stage 0, the way
        :class:`GatewayService` rejects a sealed query that does not open.
        Returns the core, ``{request_id: latency_us}`` of the completions and
        the ``(stage, request ids)`` of every executed cohort.
        """
        kwargs.setdefault("max_batch", 4)
        kwargs.setdefault("replicas", 1)
        kwargs.setdefault("admission", AdmissionPolicy(max_queue_depth=256, max_per_session=64))
        costs = _costs()
        executed: list[tuple[int, list[int]]] = []
        latencies: dict[int, float] = {}

        def stage_executor(stage_index, cohort):
            executed.append((stage_index, [request.request_id for request in cohort]))
            rejected = [r for r in cohort if stage_index == 0 and r.request_id in bad]
            cohort[:] = [r for r in cohort if r not in rejected]
            return rejected

        loop = EventLoop()
        core = GatewayCore(
            loop, costs, GatewayPolicy(policy=policy, **kwargs),
            stage_executor=stage_executor if executor else None,
            on_complete=lambda request, latency: latencies.__setitem__(
                request.request_id, latency
            ),
        )
        core.admission.attest_below(2)
        for request_id, arrival_us in arrivals:
            request = GatewayRequest(request_id, request_id % 2, arrival_us)
            loop.at(arrival_us, lambda request=request: core.offer(request))
        loop.run()
        return core, latencies, executed

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_cohorts_never_exceed_max_batch(self, policy):
        core, latencies, executed = self._run(
            policy, [(i, 0.0) for i in range(20)], max_batch=4, replicas=2
        )
        assert sorted(latencies) == list(range(20))
        assert max(len(ids) for _, ids in executed) == 4
        for stage_index in range(2):
            ran = sorted(i for stage, ids in executed if stage == stage_index for i in ids)
            assert ran == list(range(20)), f"stage {stage_index} ran {ran}"
        assert core.metrics.batched_samples == 20

    def test_static_wave_waits_out_max_wait_for_a_partial_batch(self):
        arrivals = [(0, 0.0), (1, 100.0)]
        forward_us = _costs().forward_us(2)
        core, static, _ = self._run("static", arrivals, executor=False, max_wait_us=4000.0)
        # Two requests never fill max_batch=4: the wave is cut at the head's
        # max-wait deadline and both ride one batch.
        assert static[0] == pytest.approx(4000.0 + forward_us)
        assert static[1] == pytest.approx(3900.0 + forward_us)
        assert core.metrics.batches == 1
        _, continuous, _ = self._run("continuous", arrivals, executor=False)
        assert continuous[0] < 4000.0

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_rejected_members_are_released_and_counted(self, policy):
        core, latencies, executed = self._run(
            policy, [(i, float(i)) for i in range(6)], bad={1, 4}
        )
        metrics = core.metrics
        assert metrics.admitted == 6
        assert metrics.rejected == 2
        assert metrics.completed == 4
        assert metrics.completed + metrics.rejected == metrics.admitted
        assert metrics.batched_samples == 4
        assert metrics.latency.total == 4
        assert sorted(latencies) == [0, 2, 3, 5]
        assert core.admission.depth == 0
        assert core.admission.session_in_flight(0) == core.admission.session_in_flight(1) == 0
        assert all(not {1, 4} & set(ids) for stage, ids in executed if stage > 0)

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_emptied_cohort_frees_its_replica_at_zero_cost(self, policy):
        survivors = [(4, 10_000.0), (5, 10_001.0)]
        arrivals = [(i, float(i)) for i in range(4)] + survivors
        core, latencies, _ = self._run(policy, arrivals, bad={0, 1, 2, 3})
        clean, clean_latencies, _ = self._run(policy, survivors, executor=False)
        assert core.metrics.rejected == 4
        # The all-rejected cohort charged nothing and held the only replica
        # for no time: the survivors are served exactly as if alone.
        assert latencies == clean_latencies
        for key in ("batches", "stage_executions", "world_switches",
                    "boundary_time_us", "replica_busy_us"):
            assert getattr(core.metrics, key) == getattr(clean.metrics, key), key
        assert core.metrics.latency.digest() == clean.metrics.latency.digest()


# --------------------------------------------------------------------------- #
# Real execution: logit parity and crossing accounting
# --------------------------------------------------------------------------- #
class TestGatewayServiceParity:
    def _requests(self, rng, count: int = 13) -> list[InferenceRequest]:
        inputs = rng.uniform(size=(count, 3, 8, 8))
        return [
            InferenceRequest(
                request_id=index,
                payload=inputs[index],
                arrival_us=index * 100.0,
                session_id="client",
            )
            for index in range(count)
        ]

    def _serve(self, model, requests, policy: str, **kwargs):
        kwargs.setdefault("max_batch", 4)
        kwargs.setdefault("replicas", 2)
        kwargs.setdefault("admission", AdmissionPolicy(max_queue_depth=256, max_per_session=64))
        service = GatewayService(model, GatewayPolicy(policy=policy, **kwargs))
        service.open_session("client")
        return service, service.serve(requests)

    @pytest.mark.parametrize("max_batch", [4, 1], ids=["batched", "batch1"])
    def test_continuous_equals_static_equals_eager(self, rng, max_batch):
        model = _model()
        requests = self._requests(rng)
        _, continuous = self._serve(model, requests, "continuous", max_batch=max_batch)
        _, static = self._serve(model, requests, "static", max_batch=max_batch)
        # Single-request eager: max_batch=1 on one replica is exactly one
        # eager forward per query through the same partition.
        _, single = self._serve(model, requests, "continuous", max_batch=1, replicas=1)
        eager = _eager(model, [request.payload for request in requests])
        np.testing.assert_array_equal(single.logits(), eager)
        if max_batch == 1:
            # Every cohort has one member: the same forwards, byte for byte.
            np.testing.assert_array_equal(continuous.logits(), eager)
            np.testing.assert_array_equal(static.logits(), eager)
        else:
            assert max(reply.batch_size for reply in static.replies) > 1
            assert_serving_parity(continuous.logits(), eager)
            assert_serving_parity(static.logits(), eager)
        assert [reply.request_id for reply in continuous.replies] == list(range(len(requests)))

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_drain_leaves_no_reference_cycle(self, rng, policy):
        """A drain's requests and replies are freed on return, not by the cycle collector."""
        service, _ = self._serve(_model(), self._requests(rng), policy)
        gc.collect()
        gc.disable()
        try:
            service.serve(self._requests(rng))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_simulated_switches_match_real_boundary(self, rng):
        model = _model()
        requests = self._requests(rng, count=12)
        for policy in ("continuous", "static"):
            service = GatewayService(model, GatewayPolicy(
                policy=policy, max_batch=4, replicas=2,
                admission=AdmissionPolicy(max_queue_depth=256, max_per_session=64),
            ))
            service.open_session("client")
            before = service.enclave.boundary.stats.switches
            report = service.serve(list(requests))
            real = service.enclave.boundary.stats.switches - before
            assert report.metrics["world_switches"] == real, (
                f"{policy}: simulated {report.metrics['world_switches']} switches, "
                f"boundary charged {real}"
            )
            # [secure stem, clear trunk]: one enter + one exit per cohort.
            assert real == 2 * report.metrics["batches"]

    def test_sealed_roundtrip_through_the_gateway(self, rng):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="continuous", max_batch=4))
        session = service.open_session("client-a")
        payload = rng.uniform(size=(3, 8, 8))
        service.submit_sealed(0, session.seal_query(payload), arrival_us=0.0)
        report = service.serve()
        assert service.sealed_requests == 1
        reply = report.replies[0]
        assert reply.prediction == int(model.predict(payload[None])[0])
        sealed_reply = service.seal_reply(reply)
        opened = session.open_reply(sealed_reply)
        np.testing.assert_array_equal(opened, reply.logits)

    def test_unattested_sealed_query_is_shed_without_decryption(self, rng):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="continuous"))
        session = service.open_session("client-a")
        service.submit_sealed(0, session.seal_query(rng.uniform(size=(3, 8, 8))))
        service.admission.revoke("client-a")
        report = service.serve()
        assert report.metrics["shed"] == {"unattested": 1}
        assert service.sealed_requests == 0, "a shed ciphertext was decrypted"
        assert report.replies == []

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_tampered_sealed_query_is_rejected_alone(self, rng, policy):
        model = _model()
        service = GatewayService(model, GatewayPolicy(
            policy=policy, max_batch=4,
            admission=AdmissionPolicy(max_queue_depth=4, max_per_session=8),
        ))
        session = service.open_session("a")
        payloads = rng.uniform(size=(3, 3, 8, 8))
        for index, payload in enumerate(payloads):
            sealed = session.seal_query(payload)
            if index == 1:
                sealed = _tampered(sealed)
            service.submit_sealed(index, sealed, arrival_us=index * 10.0)
        report = service.serve()
        metrics = report.metrics
        assert metrics["rejected"] == 1
        assert metrics["completed"] + metrics["rejected"] == metrics["admitted"] == 3
        assert service.sealed_requests == 2
        assert [reply.request_id for reply in report.replies] == [0, 2]
        assert_serving_parity(report.logits(), _eager(model, payloads[[0, 2]]))
        # The rejected request gave its admission slot back.
        assert service.admission.depth == 0
        assert service.admission.session_in_flight("a") == 0
        follow = service.serve(
            [InferenceRequest(request_id=10 + i, payload=rng.uniform(size=(3, 8, 8)),
                              arrival_us=1000.0 + i, session_id="a") for i in range(4)]
        )
        assert follow.metrics["admitted"] == 4
        assert follow.metrics["shed"] == {}
        assert len(follow.replies) == 4

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_closed_session_query_is_rejected(self, rng, policy):
        """The closed session's query arrives alone, so its whole cohort
        (or static batch) empties and must charge nothing."""
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy=policy, max_batch=4))
        closing = service.open_session("closing")
        staying = service.open_session("staying")
        payloads = rng.uniform(size=(2, 3, 8, 8))
        service.submit_sealed(0, closing.seal_query(payloads[0]), arrival_us=0.0)
        service.submit_sealed(1, staying.seal_query(payloads[1]), arrival_us=100_000.0)
        service.sessions.close("closing")
        before = service.enclave.boundary.stats.switches
        report = service.serve()
        metrics = report.metrics
        assert metrics["rejected"] == 1
        assert metrics["completed"] == 1
        assert [reply.request_id for reply in report.replies] == [1]
        assert report.predictions()[0] == int(model.predict(payloads[1][None])[0])
        # Only the survivor's cohort crossed the enclave boundary.
        assert metrics["world_switches"] == service.enclave.boundary.stats.switches - before == 2
        assert metrics["batches"] == 1
        assert service.admission.depth == 0

    @pytest.mark.parametrize("shielded", [True, False], ids=["shielded", "clear"])
    def test_misshapen_payload_is_rejected_alone(self, rng, shielded):
        """A query without the model's input shape would fail its cohort's
        stacked call; it is rejected and the rest of the cohort is served."""
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="static", max_batch=4),
                                 shielded=shielded)
        session_id = None
        if shielded:
            session_id = service.open_session("a").session_id
        payloads = rng.uniform(size=(4, 3, 8, 8))
        report = service.serve(
            [InferenceRequest(request_id=i, session_id=session_id,
                              payload=rng.uniform(size=(3, 16, 16)) if i == 2 else payloads[i])
             for i in range(4)]
        )
        assert report.metrics["rejected"] == 1
        assert report.metrics["completed"] == 3
        assert [reply.request_id for reply in report.replies] == [0, 1, 3]
        assert_serving_parity(report.logits(), _eager(model, payloads[[0, 1, 3]]))
        assert service.admission.depth == 0

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_all_rejected_drain_has_empty_logits(self, rng, policy):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy=policy, max_batch=4))
        session = service.open_session("a")
        for index in range(3):
            sealed = _tampered(session.seal_query(rng.uniform(size=(3, 8, 8))))
            service.submit_sealed(index, sealed, arrival_us=index * 10.0)
        report = service.serve()
        assert report.metrics["rejected"] == 3
        assert report.replies == []
        assert report.predictions().shape == (0,)
        assert report.logits().shape == (0, model.num_classes)

    def test_tampered_query_shed_at_admission_is_never_opened(self, rng):
        """Lazy unseal: a shed ciphertext is not decrypted, so its tampering
        is never even noticed — it counts as shed, not rejected."""
        model = _model()
        service = GatewayService(model, GatewayPolicy(
            policy="continuous", max_batch=4,
            admission=AdmissionPolicy(max_queue_depth=1, max_per_session=8),
        ))
        session = service.open_session("a")
        payloads = rng.uniform(size=(2, 3, 8, 8))
        service.submit_sealed(0, session.seal_query(payloads[0]), arrival_us=0.0)
        service.submit_sealed(1, _tampered(session.seal_query(payloads[1])), arrival_us=10.0)
        report = service.serve()
        metrics = report.metrics
        assert metrics["shed"] == {"queue_full": 1}
        assert metrics["rejected"] == 0
        assert metrics["completed"] == metrics["admitted"] == 1
        assert service.sealed_requests == 1
        assert [reply.request_id for reply in report.replies] == [0]

    def test_rejected_members_cost_nothing_in_continuous_cohorts(self, rng):
        """Survivors of a cohort that lost members are priced, scheduled and
        charged at the boundary exactly as if the rejected queries never
        arrived."""
        model = _model()
        payloads = rng.uniform(size=(5, 3, 8, 8))

        def serve(indices, bad=()):
            service = GatewayService(model, GatewayPolicy(policy="continuous", max_batch=4))
            session = service.open_session("a")
            for index in indices:
                sealed = session.seal_query(payloads[index])
                service.submit_sealed(
                    index, _tampered(sealed) if index in bad else sealed,
                    arrival_us=index * 10.0,
                )
            before = service.enclave.boundary.stats.switches
            report = service.serve()
            return report, service.enclave.boundary.stats.switches - before

        mixed, mixed_switches = serve(range(5), bad={1, 3})
        clean, clean_switches = serve([0, 2, 4])
        assert mixed.metrics["rejected"] == 2
        assert mixed_switches == clean_switches == mixed.metrics["world_switches"]
        # The survivors ran in the same cohorts as the clean drain (the batch
        # sizes and latencies below agree), so the logits are byte-equal.
        np.testing.assert_array_equal(mixed.logits(), clean.logits())
        assert [(r.request_id, r.latency_us, r.batch_size) for r in mixed.replies] == [
            (r.request_id, r.latency_us, r.batch_size) for r in clean.replies
        ]
        assert mixed.metrics["boundary_time_us"] == clean.metrics["boundary_time_us"]

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_reply_world_switches_are_the_per_request_share(self, rng, policy):
        requests = self._requests(rng)
        _, report = self._serve(_model(), requests, policy)
        metrics = report.metrics
        share = metrics["world_switches"] / metrics["completed"]
        assert share > 0
        assert all(reply.world_switches == share for reply in report.replies)
        assert sum(reply.world_switches for reply in report.replies) == pytest.approx(
            metrics["world_switches"]
        )

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_clear_gateway_never_switches(self, rng, policy):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy=policy, max_batch=4),
                                 shielded=False)
        assert service.enclave is None
        inputs = rng.uniform(size=(5, 3, 8, 8))
        report = service.serve(
            [InferenceRequest(request_id=i, payload=inputs[i], arrival_us=i * 50.0)
             for i in range(5)]
        )
        assert report.metrics["world_switches"] == 0
        assert report.metrics["boundary_time_us"] == 0.0
        assert [reply.world_switches for reply in report.replies] == [0.0] * 5
        assert_serving_parity(report.logits(), _eager(model, inputs))

    def test_metrics_populated_after_a_drain(self, rng):
        requests = self._requests(rng)
        _, report = self._serve(_model(), requests, "continuous")
        metrics = report.metrics
        latency = metrics["latency"]
        assert metrics["offered"] == metrics["admitted"] == metrics["completed"] == len(requests)
        assert metrics["throughput_rps"] > 0
        assert metrics["horizon_us"] >= requests[-1].arrival_us
        assert 0.0 < latency["p50_us"] <= latency["p90_us"] <= latency["p99_us"]
        assert latency["p99_us"] <= latency["p999_us"] <= latency["max_us"]
        assert metrics["mean_batch_size"] == pytest.approx(
            metrics["completed"] / metrics["batches"]
        )
        assert 0.0 <= metrics["slo_attainment"] <= 1.0
        assert all(reply.latency_us > 0 for reply in report.replies)
        assert report.capacity_rps > 0

    @pytest.mark.parametrize("max_batch", [1, 4], ids=["batch1", "batch4"])
    def test_reply_batch_size_is_the_stem_cohort_size(self, rng, max_batch):
        requests = self._requests(rng)
        _, report = self._serve(_model(), requests, "continuous", max_batch=max_batch)
        sizes = [reply.batch_size for reply in report.replies]
        assert all(1 <= size <= max_batch for size in sizes)
        # Every member of a cohort of k reports k, so k divides its count.
        for size in set(sizes):
            assert sizes.count(size) % size == 0, sizes
        assert report.metrics["batches"] == sum(sizes.count(k) // k for k in set(sizes))
        if max_batch == 1:
            assert report.metrics["batches"] == len(requests)

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_reply_latency_is_queue_wait_plus_stage_service(self, rng, policy):
        service, report = self._serve(_model(), self._requests(rng, count=1), policy)
        (reply,) = report.replies
        # A lone request never waits on a cohort; a static wave holds a
        # partial batch for max_wait_us before it starts.
        wait_us = service.policy.max_wait_us if policy == "static" else 0.0
        assert reply.latency_us == pytest.approx(wait_us + service.costs().forward_us(1))

    def test_sealed_and_clear_queries_share_one_drain(self, rng):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="continuous", max_batch=4))
        session = service.open_session("client")
        inputs = rng.uniform(size=(4, 3, 8, 8))
        for index in (0, 2):
            service.submit_sealed(index, session.seal_query(inputs[index]),
                                  arrival_us=index * 10.0)
        report = service.serve(
            [InferenceRequest(request_id=index, payload=inputs[index],
                              arrival_us=index * 10.0, session_id="client")
             for index in (1, 3)]
        )
        assert service.sealed_requests == 2
        assert [reply.request_id for reply in report.replies] == [0, 1, 2, 3]
        assert_serving_parity(report.logits(), _eager(model, inputs))

    def test_replies_follow_arrival_order_not_submission_order(self, rng):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="continuous", max_batch=4))
        service.open_session("client")
        inputs = rng.uniform(size=(4, 3, 8, 8))
        requests = [InferenceRequest(request_id=i, payload=inputs[i], arrival_us=i * 10.0,
                                     session_id="client") for i in range(4)]
        for request in reversed(requests[2:]):
            service.submit(request)
        report = service.serve(requests[:2])
        assert [reply.request_id for reply in report.replies] == [0, 1, 2, 3]
        assert_serving_parity(report.logits(), _eager(model, inputs))

    def test_session_quota_sheds_only_the_busy_session(self, rng):
        service = GatewayService(_model(), GatewayPolicy(
            policy="static", max_batch=8,
            admission=AdmissionPolicy(max_queue_depth=64, max_per_session=2),
        ))
        service.open_session("chatty")
        service.open_session("quiet")
        inputs = rng.uniform(size=(5, 3, 8, 8))
        sessions = ["chatty"] * 4 + ["quiet"]
        report = service.serve(
            [InferenceRequest(request_id=i, payload=inputs[i], arrival_us=float(i),
                              session_id=sessions[i]) for i in range(5)]
        )
        assert report.metrics["shed"] == {"session_quota": 2}
        assert [(reply.request_id, reply.session_id) for reply in report.replies] == [
            (0, "chatty"), (1, "chatty"), (4, "quiet")
        ]

    def test_sealed_reply_opens_only_for_its_session(self, rng):
        service = GatewayService(_model(), GatewayPolicy(policy="continuous"))
        owner = service.open_session("owner")
        other = service.open_session("other")
        service.submit_sealed(0, owner.seal_query(rng.uniform(size=(3, 8, 8))))
        reply = service.serve().replies[0]
        sealed = service.seal_reply(reply)
        np.testing.assert_array_equal(owner.open_reply(sealed), reply.logits)
        with pytest.raises(SecureChannelError):
            other.open_reply(sealed)

    def test_seal_reply_needs_a_sealed_session(self, rng):
        clear = GatewayService(_model(), GatewayPolicy(policy="continuous"), shielded=False)
        reply = clear.serve(
            [InferenceRequest(request_id=0, payload=rng.uniform(size=(3, 8, 8)))]
        ).replies[0]
        with pytest.raises(RuntimeError):
            clear.seal_reply(reply)
        shielded = GatewayService(_model(), GatewayPolicy(policy="continuous"))
        anonymous = InferenceReply(
            request_id=0, prediction=0, logits=reply.logits, latency_us=1.0,
            batch_size=1, world_switches=0.0,
        )
        with pytest.raises(RuntimeError):
            shielded.seal_reply(anonymous)

    def test_submit_sealed_needs_a_shielded_gateway(self, rng):
        shielded = GatewayService(_model(), GatewayPolicy(policy="continuous"))
        sealed = shielded.open_session("a").seal_query(rng.uniform(size=(3, 8, 8)))
        clear = GatewayService(_model(), GatewayPolicy(policy="continuous"), shielded=False)
        with pytest.raises(RuntimeError):
            clear.submit_sealed(0, sealed)

    def test_cost_calibration_never_decrypts(self, rng):
        service = GatewayService(_model(), GatewayPolicy(policy="continuous"))
        session = service.open_session("a")
        service.submit_sealed(0, session.seal_query(rng.uniform(size=(3, 8, 8))))
        costs = service.costs()
        assert service.sealed_requests == 0
        assert [stage.secure for stage in costs.stages] == [True, False]
        service.serve()
        assert service.sealed_requests == 1
        assert service.costs() is costs

    @pytest.mark.parametrize("shielded", [True, False], ids=["shielded", "clear"])
    def test_empty_first_drain_returns_an_empty_report(self, rng, shielded):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="continuous"), shielded=shielded)
        report = service.serve()
        assert report.replies == []
        assert report.metrics["offered"] == report.metrics["completed"] == 0
        assert report.stages == service.partition.describe()
        assert report.predictions().shape == (0,)
        assert report.logits().shape == (0, model.num_classes)
        assert report.logits().dtype == get_default_dtype()
        # The next drain still calibrates and serves normally.
        payload = rng.uniform(size=(3, 8, 8))
        if shielded:
            service.open_session("a")
        follow = service.serve(
            [InferenceRequest(request_id=0, payload=payload,
                              session_id="a" if shielded else None)]
        )
        assert follow.predictions().tolist() == model.predict(payload[None]).tolist()

    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_replies_match_direct_prediction(self, rng, policy):
        model = _model()
        requests = self._requests(rng)
        _, report = self._serve(model, requests, policy)
        inputs = np.stack([request.payload for request in requests])
        np.testing.assert_array_equal(report.predictions(), model.predict(inputs))
        assert [reply.request_id for reply in report.replies] == list(range(len(requests)))

    def test_stages_mark_the_secure_stem(self, rng):
        requests = self._requests(rng, count=2)
        _, shielded = self._serve(_model(), requests, "continuous")
        assert shielded.stages == [
            {"stage": "stem", "secure": True},
            {"stage": "trunk", "secure": False},
        ]
        clear = GatewayService(_model(), GatewayPolicy(policy="continuous"), shielded=False)
        report = clear.serve([InferenceRequest(request_id=0, payload=requests[0].payload)])
        assert report.stages == [
            {"stage": "stem", "secure": False},
            {"stage": "trunk", "secure": False},
        ]

    def test_duplicate_session_id_rejected(self):
        service = GatewayService(_model(), GatewayPolicy(policy="continuous"))
        service.open_session("client-d")
        with pytest.raises(AttestationError):
            service.open_session("client-d")

    def test_clear_gateway_has_no_sessions(self):
        service = GatewayService(_model(), GatewayPolicy(policy="continuous"), shielded=False)
        with pytest.raises(RuntimeError):
            service.open_session("client-e")

    def test_unattested_sessions_never_admit(self, rng):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="continuous", max_batch=4))
        service.open_session("client-a")
        inputs = rng.uniform(size=(6, 3, 8, 8))
        # Odd requests come from a session that skipped open_session.
        report = service.serve(
            [InferenceRequest(request_id=i, payload=inputs[i], arrival_us=i * 50.0,
                              session_id="client-a" if i % 2 == 0 else "client-b")
             for i in range(6)]
        )
        metrics = report.metrics
        assert metrics["offered"] == 6
        assert metrics["admitted"] == 3
        assert metrics["shed"] == {"unattested": 3}
        assert metrics["completed"] == metrics["admitted"]
        assert [reply.request_id for reply in report.replies] == [0, 2, 4]
        assert [reply.session_id for reply in report.replies] == ["client-a"] * 3

    def test_clear_gateway_serves_without_sessions(self, rng):
        model = _model()
        service = GatewayService(model, GatewayPolicy(policy="continuous", max_batch=4),
                                 shielded=False)
        inputs = rng.uniform(size=(6, 3, 8, 8))
        report = service.serve(
            [InferenceRequest(request_id=i, payload=inputs[i], arrival_us=i * 50.0)
             for i in range(6)]
        )
        np.testing.assert_array_equal(report.predictions(), model.predict(inputs))
        assert report.metrics["world_switches"] == 0

    def test_repeated_serves_do_not_grow_enclave_regions(self, rng):
        model = _model()
        service = GatewayService(model, GatewayPolicy(
            policy="continuous", max_batch=4, replicas=2,
            admission=AdmissionPolicy(max_queue_depth=256, max_per_session=64),
        ))
        service.open_session("client")
        requests = self._requests(rng, count=4)
        eager = _eager(model, [request.payload for request in requests])
        first = service.serve(list(requests))
        after_one = service.enclave.memory_report().region_value_bytes
        assert after_one > 0
        for _ in range(19):
            report = service.serve(list(requests))
        assert service.enclave.memory_report().region_value_bytes <= after_one
        assert_serving_parity(first.logits(), eager)
        assert_serving_parity(report.logits(), eager)

    def test_secure_stage_opens_one_shield_region_per_cohort(self, rng, monkeypatch):
        service = GatewayService(_model(), GatewayPolicy(
            policy="static", max_batch=4, replicas=2,
            admission=AdmissionPolicy(max_queue_depth=256, max_per_session=64),
        ))
        service.open_session("client")
        requests = self._requests(rng, count=8)
        # Calibrate on a first drain, so only the counted drain's scopes open.
        service.serve(requests[:1])
        opened = []
        shield_scope = service.enclave.shield_scope

        def counting_scope(name="stem"):
            opened.append(name)
            return shield_scope(name)

        monkeypatch.setattr(service.enclave, "shield_scope", counting_scope)
        report = service.serve(requests)
        assert report.metrics["completed"] == 8
        assert report.metrics["batches"] < 8
        assert opened == ["stem"] * report.metrics["batches"]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @settings(max_examples=25, deadline=None)
    @given(
        max_batch=st.integers(1, 8),
        policy=st.sampled_from(["continuous", "static"]),
        shielded=st.booleans(),
        data=st.data(),
    )
    def test_batched_cohorts_keep_the_parity_contract(
        self, dtype, max_batch, policy, shielded, data
    ):
        """Any cohort size, policy and payloads: equal argmax and the ulp
        bound against eager, and byte-identity for a lone request."""
        size = data.draw(st.integers(1, max_batch), label="size")
        pixels = data.draw(arrays(np.uint8, (size, 3, 8, 8)), label="pixels")
        previous = get_default_dtype()
        set_default_dtype(dtype)
        try:
            set_global_seed(20230913)
            model = _model()
            payloads = (pixels / 255.0).astype(dtype)
            service = GatewayService(
                model,
                GatewayPolicy(policy=policy, max_batch=max_batch, replicas=1,
                              admission=AdmissionPolicy(max_queue_depth=16, max_per_session=16)),
                shielded=shielded,
            )
            if shielded:
                service.open_session("client")
            report = service.serve(
                [InferenceRequest(request_id=index, payload=payloads[index],
                                  session_id="client" if shielded else None)
                 for index in range(size)]
            )
            eager = _eager(model, payloads)
        finally:
            set_default_dtype(previous)
        assert [reply.request_id for reply in report.replies] == list(range(size))
        assert max(reply.batch_size for reply in report.replies) <= max_batch
        assert_serving_parity(report.logits(), eager)
        if size == 1:
            np.testing.assert_array_equal(report.logits(), eager)

    def test_replays_and_serving_start_no_worker_threads(self, rng):
        """Captured replays of a banded conv tower and gateway serving run
        on the calling thread: no replay worker pool is ever started."""
        model = SimpleCNN(
            SimpleCNNConfig(in_channels=3, num_classes=4, widths=(8, 16), image_size=32)
        )

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=model(x).sum(), input=x)

        captured = CapturedExecution()
        for _ in range(3):
            captured.run(trace, rng.uniform(size=(8, 3, 32, 32)), key="tower")
        assert captured.stats.replays == 1
        self._serve(_model(), self._requests(rng), "continuous", max_batch=1)
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith("repro-replay")], names
