"""End-to-end tests of the shielded inference serving runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.simple import SimpleCNN, SimpleCNNConfig
from repro.serve import (
    BatchingPolicy,
    ShieldedInferenceService,
    uniform_workload,
)
from repro.tee.errors import AttestationError, SecureChannelError


def _model() -> SimpleCNN:
    return SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=4, widths=(4, 8), image_size=8))


@pytest.fixture()
def inputs(rng) -> np.ndarray:
    return rng.uniform(size=(21, 3, 8, 8))


def _serve(model, inputs, **kwargs):
    policy = kwargs.pop("policy", BatchingPolicy(max_batch=4, max_wait_us=2000.0))
    service = ShieldedInferenceService(model, policy, **kwargs)
    return service.serve(uniform_workload(inputs, inter_arrival_us=100.0))


class TestServingCorrectness:
    def test_replies_match_direct_prediction(self, inputs):
        model = _model()
        report = _serve(model, inputs)
        np.testing.assert_array_equal(report.predictions(), model.predict(inputs))
        assert [reply.request_id for reply in report.replies] == list(range(len(inputs)))

    def test_batched_equals_unbatched(self, inputs):
        model = _model()
        batched = _serve(model, inputs)
        single = _serve(model, inputs, policy=BatchingPolicy(max_batch=1))
        np.testing.assert_array_equal(batched.predictions(), single.predictions())

    def test_captured_is_bit_identical_to_eager(self, inputs):
        model = _model()
        captured = _serve(model, inputs, capture="captured")
        eager = _serve(model, inputs, capture="eager")
        np.testing.assert_array_equal(captured.logits(), eager.logits())
        assert captured.stats.capture.get("replays", 0) > 0


class TestWorldSwitchAccounting:
    def test_two_switches_per_batch(self, inputs):
        report = _serve(_model(), inputs)
        assert report.stats.world_switches_total == 2 * report.stats.batches
        assert report.stats.world_switches_per_request == pytest.approx(
            2.0 * report.stats.batches / len(inputs)
        )

    def test_captured_replays_charge_the_boundary(self, inputs):
        captured = _serve(_model(), inputs, capture="captured")
        eager = _serve(_model(), inputs, capture="eager")
        assert captured.stats.world_switches_total == eager.stats.world_switches_total
        assert captured.stats.boundary_time_us == pytest.approx(eager.stats.boundary_time_us)

    def test_unshielded_service_never_switches(self, inputs):
        report = _serve(_model(), inputs, shielded=False)
        assert report.stats.world_switches_total == 0
        assert report.partition == [
            {"stage": "stem", "secure": False},
            {"stage": "trunk", "secure": False},
        ]

    def test_shielded_partition_marks_the_stem(self, inputs):
        report = _serve(_model(), inputs)
        assert report.partition == [
            {"stage": "stem", "secure": True},
            {"stage": "trunk", "secure": False},
        ]


class TestSealedSessions:
    def test_sealed_query_roundtrip(self, rng):
        model = _model()
        service = ShieldedInferenceService(model, BatchingPolicy(max_batch=4))
        session = service.open_session("client-a")
        payload = rng.uniform(size=(3, 8, 8))
        service.submit_sealed(0, session.seal_query(payload))
        report = service.serve()
        assert report.stats.sealed_requests == 1
        reply = report.replies[0]
        assert reply.prediction == int(model.predict(payload[None])[0])
        opened = session.open_reply(service.seal_reply(reply))
        np.testing.assert_array_equal(opened, reply.logits)

    def test_tampered_query_is_rejected(self, rng):
        from dataclasses import replace

        service = ShieldedInferenceService(_model(), BatchingPolicy())
        session = service.open_session("client-b")
        sealed = session.seal_query(rng.uniform(size=(3, 8, 8)))
        bad = replace(
            sealed,
            message=replace(sealed.message, ciphertext=b"\x00" + sealed.message.ciphertext[1:]),
        )
        with pytest.raises(SecureChannelError):
            service.submit_sealed(0, bad)

    def test_unknown_session_is_rejected(self, rng):
        service = ShieldedInferenceService(_model(), BatchingPolicy())
        session = service.open_session("client-c")
        sealed = session.seal_query(rng.uniform(size=(3, 8, 8)))
        service.sessions.close("client-c")
        with pytest.raises(AttestationError):
            service.submit_sealed(0, sealed)

    def test_duplicate_session_id_rejected(self):
        service = ShieldedInferenceService(_model(), BatchingPolicy())
        service.open_session("client-d")
        with pytest.raises(AttestationError):
            service.open_session("client-d")

    def test_unshielded_service_has_no_sessions(self):
        service = ShieldedInferenceService(_model(), BatchingPolicy(), shielded=False)
        with pytest.raises(RuntimeError):
            service.open_session("client-e")


class TestServingStats:
    def test_throughput_and_latency_populated(self, inputs):
        report = _serve(_model(), inputs)
        stats = report.stats
        assert stats.requests == len(inputs)
        assert stats.throughput_rps > 0
        assert stats.latency_us_p50 > 0
        assert stats.latency_us_p99 >= stats.latency_us_p95 >= stats.latency_us_p50
        assert stats.mean_batch_size == pytest.approx(len(inputs) / stats.batches)

    def test_padding_is_counted(self, rng):
        # 23 requests at max_batch 4 → five full batches plus a 3-sample
        # remainder padded up to 4.
        model = _model()
        inputs = rng.uniform(size=(23, 3, 8, 8))
        padded = _serve(model, inputs)
        assert padded.stats.padded_slots > 0
        assert len(padded.replies) == len(inputs)
        np.testing.assert_array_equal(padded.predictions(), model.predict(inputs))
