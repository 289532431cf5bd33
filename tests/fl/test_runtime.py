"""Tests of the federation runtime: envelopes, transports, attestation, hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import PGD
from repro.fl import (
    AttestationGate,
    BroadcastEnvelope,
    ClientConfig,
    CompromisedClient,
    FederationRuntime,
    HonestClient,
    ModelPoisoningClient,
    RoundHooks,
    UpdateEnvelope,
    enroll_and_attest,
    get_transport,
    trimmed_mean,
    coordinate_median,
    fedavg,
    make_delta,
    apply_delta,
)
from repro.fl.messages import ModelUpdate
from repro.fl.runtime import (
    client_task_seed,
    decode_state,
    encode_state,
    sample_by_fraction,
    seal_state,
    unseal_state,
)
from repro.models.simple import MLPClassifier
from repro.tee.attestation import AttestationQuote
from repro.tee.enclave import TrustZoneEnclave
from repro.tee.errors import AttestationError, SecureChannelError
from repro.tee.secure_channel import SecureChannel
from repro.utils.rng import set_global_seed


def _mlp_factory():
    return MLPClassifier(input_dim=12, num_classes=3, hidden_dim=12, input_shape=(3, 2, 2))


def _toy_data(rng, samples_per_class: int = 30):
    prototypes = np.eye(3)
    images, labels = [], []
    for class_index in range(3):
        base = np.zeros((samples_per_class, 3, 2, 2))
        base += prototypes[class_index][None, :, None, None]
        base += rng.normal(scale=0.1, size=base.shape)
        images.append(np.clip(base, 0.0, 1.0))
        labels.append(np.full(samples_per_class, class_index, dtype=np.int64))
    images = np.concatenate(images)
    labels = np.concatenate(labels)
    order = rng.permutation(len(labels))
    return images[order], labels[order]


def _honest_clients(images, labels, count=3, enclaves=False, config=None):
    config = config if config is not None else ClientConfig(local_epochs=1, batch_size=16)
    return [
        HonestClient(
            f"c{i}",
            _mlp_factory,
            images[i::count],
            labels[i::count],
            config=config,
            enclave=TrustZoneEnclave(name=f"c{i}.enclave") if enclaves else None,
        )
        for i in range(count)
    ]


# --------------------------------------------------------------------------- #
# Envelopes
# --------------------------------------------------------------------------- #
class TestEnvelopes:
    def test_state_codec_roundtrip(self, rng):
        state = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,))}
        decoded = decode_state(encode_state(state))
        assert set(decoded) == {"w", "b"}
        np.testing.assert_array_equal(decoded["w"], state["w"])

    def test_sealed_state_roundtrip_and_tamper_detection(self, rng):
        channel = SecureChannel(b"k" * 32, rng=rng)
        state = {"w": rng.normal(size=(2, 2))}
        sealed = seal_state(channel, state)
        np.testing.assert_array_equal(unseal_state(channel, sealed)["w"], state["w"])
        import dataclasses

        tampered = dataclasses.replace(
            sealed.message, ciphertext=bytes(value ^ 0xFF for value in sealed.message.ciphertext)
        )
        with pytest.raises(SecureChannelError):
            channel.decrypt(tampered)

    def test_envelope_requires_exactly_one_payload(self):
        with pytest.raises(ValueError):
            BroadcastEnvelope(round_index=0)
        with pytest.raises(ValueError):
            UpdateEnvelope(
                client_id="c",
                round_index=0,
                num_samples=1,
                train_loss=0.0,
                train_accuracy=0.0,
            )

    def test_sealed_broadcast_requires_channel(self, rng):
        channel = SecureChannel(b"k" * 32, rng=rng)
        envelope = BroadcastEnvelope(round_index=0, sealed=seal_state(channel, {"w": np.ones(2)}))
        with pytest.raises(SecureChannelError):
            envelope.open(None)

    def test_update_envelope_roundtrip(self):
        update = ModelUpdate(
            client_id="c0", round_index=1, num_samples=7, state={"w": np.ones(3)},
            train_loss=0.5, train_accuracy=0.9,
        )
        reopened = UpdateEnvelope.from_update(update).open()
        assert reopened.client_id == "c0"
        assert reopened.num_samples == 7
        np.testing.assert_array_equal(reopened.state["w"], update.state["w"])


# --------------------------------------------------------------------------- #
# Transport parity
# --------------------------------------------------------------------------- #
class TestTransportParity:
    def _history(self, backend: str):
        set_global_seed(4242)
        rng = np.random.default_rng(11)
        images, labels = _toy_data(rng)
        runtime = FederationRuntime(
            _mlp_factory(),
            _honest_clients(images, labels),
            transport=get_transport(backend, max_workers=2),
        )
        result = runtime.run(2, images, labels)
        return [
            (
                entry.round_index,
                tuple(entry.participating_clients),
                entry.global_accuracy,
                entry.mean_client_loss,
                entry.update_bytes,
                tuple(entry.compromised_clients),
            )
            for entry in result.rounds
        ]

    def test_round_histories_bit_identical_across_backends(self):
        serial = self._history("serial")
        assert self._history("process") == serial
        assert self._history("auto") == serial

    def test_unknown_transport_rejected(self):
        with pytest.raises(KeyError):
            get_transport("carrier-pigeon")

    def _streamed_aggregate(self, workers: int, aggregation_rule):
        """Global model bytes after a streamed round on ``workers`` processes."""
        set_global_seed(777)
        rng = np.random.default_rng(5)
        images, labels = _toy_data(rng)
        runtime = FederationRuntime(
            _mlp_factory(),
            _honest_clients(images, labels, count=5),
            transport=get_transport("process", max_workers=workers),
            aggregation_rule=aggregation_rule,
        )
        result = runtime.run_round(images, labels)
        state = runtime.global_model.state_dict()
        return (
            {key: np.asarray(value).tobytes() for key, value in state.items()},
            result.update_bytes,
            result.global_accuracy,
        )

    @pytest.mark.parametrize("rule", [fedavg, coordinate_median, trimmed_mean])
    def test_streamed_aggregates_byte_identical_across_worker_counts(self, rule):
        """Streaming reduce is pinned: {1, 2, 8} workers give the same bytes."""
        reference = self._streamed_aggregate(1, rule)
        for workers in (2, 8):
            assert self._streamed_aggregate(workers, rule) == reference, (
                f"{rule.__name__} aggregate bytes changed at {workers} workers"
            )


# --------------------------------------------------------------------------- #
# Robust aggregation under attack
# --------------------------------------------------------------------------- #
class TestRobustAggregationUnderAttack:
    def _final_accuracy(self, rule, rng_seed=5):
        set_global_seed(777)
        rng = np.random.default_rng(rng_seed)
        images, labels = _toy_data(rng, samples_per_class=40)
        config = ClientConfig(local_epochs=2, batch_size=16, learning_rate=0.08)
        clients = _honest_clients(images, labels, count=4, config=config)
        # Replace the last participant with a boosted model-poisoning client.
        evil = ModelPoisoningClient(
            "evil",
            _mlp_factory,
            images[3::4],
            labels[3::4],
            attack=PGD(epsilon=0.1, step_size=0.05, steps=1),
            config=config,
            poison_target=0,
            poison_fraction=1.0,
            boost_factor=50.0,
        )
        clients[-1] = evil
        runtime = FederationRuntime(_mlp_factory(), clients, aggregation_rule=rule)
        result = runtime.run(3, images, labels)
        assert result.rounds[-1].compromised_clients == ["evil"]
        return result.final_accuracy

    def test_robust_rules_outvote_poisoned_updates_where_fedavg_fails(self):
        from functools import partial

        poisoned_fedavg = self._final_accuracy(fedavg)
        robust_trimmed = self._final_accuracy(partial(trimmed_mean, trim_fraction=0.25))
        robust_median = self._final_accuracy(coordinate_median)
        assert robust_trimmed > 0.8
        assert robust_median > 0.8
        assert poisoned_fedavg < 0.6
        assert robust_trimmed > poisoned_fedavg
        assert robust_median > poisoned_fedavg


# --------------------------------------------------------------------------- #
# Attestation-gated secure sessions
# --------------------------------------------------------------------------- #
class TestAttestedSessions:
    def _federation(self, rng, enclaves=True):
        images, labels = _toy_data(rng)
        clients = _honest_clients(images, labels, enclaves=enclaves)
        runtime = FederationRuntime(_mlp_factory(), clients)
        return runtime, clients, images, labels

    def test_shielded_updates_traverse_the_secure_channel(self, rng):
        set_global_seed(31337)
        runtime, clients, images, labels = self._federation(rng)
        device_keys = {client.client_id: b"device-" + client.client_id.encode() * 4
                       for client in clients}
        sessions = runtime.attest_clients(device_keys)
        assert set(sessions) == {"c0", "c1", "c2"}
        result = runtime.run_round(images, labels)
        # Broadcast + update sealed for every attested participant.
        assert runtime.secure_stats.attested_clients == 3
        assert runtime.secure_stats.sealed_messages == 2 * len(result.participating_clients)
        assert runtime.secure_stats.sealed_bytes > 0
        assert np.isfinite(result.global_accuracy)

    def test_sealed_rounds_match_plaintext_rounds(self, rng):
        """Encryption is transparent: sealed and plaintext histories agree."""
        set_global_seed(2024)
        sealed_runtime, clients, images, labels = self._federation(np.random.default_rng(3))
        sealed_runtime.attest_clients(
            {client.client_id: b"k" * 32 for client in clients}
        )
        sealed = sealed_runtime.run_round(images, labels)

        set_global_seed(2024)
        plain_runtime, _, images2, labels2 = self._federation(np.random.default_rng(3))
        plain = plain_runtime.run_round(images2, labels2)
        assert sealed.global_accuracy == plain.global_accuracy
        assert sealed.mean_client_loss == plain.mean_client_loss
        assert sealed.update_bytes == plain.update_bytes

    def test_tampered_quote_is_rejected(self, rng):
        gate = AttestationGate(rng=rng)
        enclave = TrustZoneEnclave(name="victim.enclave")
        device_key = b"d" * 32
        gate.enroll("victim", device_key, enclave.measurement())

        def tampered_attest(nonce: bytes) -> AttestationQuote:
            quote = enclave.attest(nonce, device_key)
            return AttestationQuote(
                enclave_name=quote.enclave_name,
                measurement=quote.measurement,
                nonce=quote.nonce,
                signature=bytes(value ^ 0x01 for value in quote.signature),
            )

        with pytest.raises(AttestationError):
            gate.establish("victim", tampered_attest)
        assert "victim" not in gate.sessions

    def test_wrong_measurement_is_rejected(self, rng):
        gate = AttestationGate(rng=rng)
        enclave = TrustZoneEnclave(name="victim.enclave")
        device_key = b"d" * 32
        gate.enroll("victim", device_key, b"\x00" * 32)  # expectation mismatch
        with pytest.raises(AttestationError):
            gate.establish("victim", lambda nonce: enclave.attest(nonce, device_key))

    def test_unenrolled_client_is_rejected(self, rng):
        gate = AttestationGate(rng=rng)
        client = HonestClient(
            "ghost", _mlp_factory, np.zeros((2, 3, 2, 2)), np.zeros(2, dtype=np.int64),
            enclave=TrustZoneEnclave(name="ghost.enclave"),
        )
        with pytest.raises(AttestationError):
            gate.establish("ghost", lambda nonce: client.enclave.attest(nonce, b"k" * 16))

    def test_shared_gate_sessions_do_not_leak_across_runtimes(self, rng):
        """A runtime only trusts sessions it established itself."""
        attested_runtime, clients, images, labels = self._federation(rng)
        attested_runtime.attest_clients({c.client_id: b"k" * 32 for c in clients})
        # Second federation, same client ids but no enclaves, sharing the gate.
        other_images, other_labels = _toy_data(np.random.default_rng(9))
        other_runtime = FederationRuntime(
            _mlp_factory(),
            _honest_clients(other_images, other_labels, enclaves=False),
            gate=attested_runtime.gate,
        )
        result = other_runtime.run_round(other_images, other_labels)
        assert other_runtime.secure_stats.attested_clients == 0
        assert other_runtime.secure_stats.sealed_messages == 0
        assert np.isfinite(result.global_accuracy)

    def test_missing_device_key_refuses_plaintext_downgrade(self, rng):
        runtime, clients, _, _ = self._federation(rng)
        partial_keys = {"c0": b"k" * 32, "c1": b"k" * 32}  # c2 missing
        with pytest.raises(AttestationError):
            runtime.attest_clients(partial_keys)

    def test_enclaveless_client_cannot_attest(self, rng):
        gate = AttestationGate(rng=rng)
        client = HonestClient(
            "bare", _mlp_factory, np.zeros((2, 3, 2, 2)), np.zeros(2, dtype=np.int64)
        )
        with pytest.raises(AttestationError):
            enroll_and_attest(gate, client, b"k" * 16)


# --------------------------------------------------------------------------- #
# Compromised detection and hooks
# --------------------------------------------------------------------------- #
class TestCompromisedDetection:
    def test_detection_survives_subclassing(self, rng):
        """Regression: the old type-name check missed subclasses."""

        class StealthyClient(CompromisedClient):
            pass

        images, labels = _toy_data(rng)
        stealthy = StealthyClient(
            "stealthy", _mlp_factory, images[:30], labels[:30],
            attack=PGD(epsilon=0.1, step_size=0.05, steps=1),
        )
        honest = HonestClient("honest", _mlp_factory, images[30:60], labels[30:60])
        runtime = FederationRuntime(_mlp_factory(), [honest, stealthy])
        result = runtime.run_round(images, labels)
        assert result.compromised_clients == ["stealthy"]

    def test_local_update_receives_the_task_seeded_rng(self, rng):
        """Every client task passes ``rng`` — seeded per (round, client) — to the client."""
        states: dict[str, dict] = {}

        class RecordingClient(HonestClient):
            def local_update(self, round_index, rng=None):
                states[self.client_id] = rng.bit_generator.state
                return super().local_update(round_index, rng=rng)

        images, labels = _toy_data(rng)
        clients = [
            RecordingClient(f"r{i}", _mlp_factory, images[i::2], labels[i::2]) for i in range(2)
        ]
        FederationRuntime(_mlp_factory(), clients, seed=3, round_index=4).run_round()
        for client in clients:
            expected = np.random.default_rng(client_task_seed(3, 4, client.client_id))
            assert states[client.client_id] == expected.bit_generator.state

    def test_rng_less_local_update_is_rejected(self, rng):
        """``local_update(round_index, rng=...)`` is the one participant signature."""

        class RngLessClient(HonestClient):
            def local_update(self, round_index):
                return super().local_update(round_index)

        images, labels = _toy_data(rng)
        runtime = FederationRuntime(
            _mlp_factory(), [RngLessClient("old", _mlp_factory, images[:30], labels[:30])]
        )
        with pytest.raises(TypeError, match="rng"):
            runtime.run_round()
        assert runtime.round_index == 0

    def test_honest_subclass_is_not_flagged(self, rng):
        class QuietClient(HonestClient):
            pass

        images, labels = _toy_data(rng)
        runtime = FederationRuntime(
            _mlp_factory(), [QuietClient("quiet", _mlp_factory, images[:30], labels[:30])]
        )
        assert runtime.run_round().compromised_clients == []


class TestRoundHooks:
    def test_hooks_compose_sampling_aggregation_and_eval(self, rng):
        images, labels = _toy_data(rng)
        clients = _honest_clients(images, labels)
        seen: list[int] = []
        hooks = RoundHooks(
            sample_clients=lambda population, _round, _rng: list(population)[:2],
            aggregate=coordinate_median,
            evaluate=lambda model, round_index: 0.123,
            on_round_end=(lambda result: seen.append(result.round_index),),
        )
        runtime = FederationRuntime(_mlp_factory(), clients, hooks=hooks)
        result = runtime.run(2)
        assert [entry.participating_clients for entry in result.rounds] == [["c0", "c1"]] * 2
        assert result.accuracies == [0.123, 0.123]
        assert seen == [0, 1]

    def test_default_fraction_sampling(self, rng):
        images, labels = _toy_data(rng)
        runtime = FederationRuntime(
            _mlp_factory(),
            _honest_clients(images, labels, count=4),
            client_fraction=0.5,
        )
        result = runtime.run_round()
        assert len(result.participating_clients) == 2
        with pytest.raises(ValueError):
            FederationRuntime(
                _mlp_factory(), _honest_clients(images, labels), client_fraction=0.0
            ).run_round()

    def test_sample_by_fraction_rounds_and_keeps_participant_order(self):
        population = [f"c{i}" for i in range(10)]
        sampled = sample_by_fraction(population, 0.34, np.random.default_rng(0))
        assert len(sampled) == 3
        assert sampled == sorted(sampled, key=population.index)
        assert len(set(sampled)) == 3
        assert sample_by_fraction(population, 0.01, np.random.default_rng(0)) != []
        assert sample_by_fraction(population, 1.0, np.random.default_rng(0)) == population

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_sample_by_fraction_rejects_out_of_range(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            sample_by_fraction(["a", "b"], fraction, np.random.default_rng(0))

    def test_all_nan_losses_stay_silent(self, rng):
        """A round whose every train_loss is NaN reports NaN, no warning."""
        import dataclasses
        import warnings

        class LossLessClient(HonestClient):
            def local_update(self, round_index, rng=None):
                update = super().local_update(round_index, rng=rng)
                return dataclasses.replace(update, train_loss=float("nan"))

        images, labels = _toy_data(rng)
        runtime = FederationRuntime(
            _mlp_factory(),
            [LossLessClient("mute", _mlp_factory, images[:30], labels[:30])],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runtime.run_round()
        assert np.isnan(result.mean_client_loss)


# --------------------------------------------------------------------------- #
# Delta-compressed envelopes
# --------------------------------------------------------------------------- #
class TestDeltaCompression:
    def _states(self, rng):
        base = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,))}
        new = {key: value + rng.normal(scale=0.01, size=value.shape) for key, value in base.items()}
        return base, new

    def test_float_delta_roundtrip_is_exact(self, rng):
        base, new = self._states(rng)
        delta = make_delta(new, base)
        assert not delta.is_quantized
        restored = apply_delta(base, delta)
        for key in base:
            np.testing.assert_array_equal(restored[key], (new[key] - base[key]) + base[key])

    def test_quantized_delta_error_bounded_by_scale(self, rng):
        base, new = self._states(rng)
        delta = make_delta(new, base, quantize_rng=np.random.default_rng(42))
        assert delta.is_quantized
        assert all(codes.dtype == np.int8 for codes in delta.codes.values())
        restored = apply_delta(base, delta)
        for key in base:
            scale = delta.scales[key]
            assert np.max(np.abs(restored[key] - new[key])) <= scale + 1e-12

    def test_quantized_delta_is_deterministic_in_the_seed(self, rng):
        base, new = self._states(rng)
        one = make_delta(new, base, quantize_rng=np.random.default_rng(9))
        two = make_delta(new, base, quantize_rng=np.random.default_rng(9))
        for key in one.codes:
            np.testing.assert_array_equal(one.codes[key], two.codes[key])

    def test_quantized_bytes_beat_dense(self, rng):
        base, new = self._states(rng)
        dense_bytes = sum(np.asarray(value).nbytes for value in new.values())
        delta = make_delta(new, base, quantize_rng=np.random.default_rng(1))
        assert delta.nbytes * 3 <= dense_bytes

    def test_delta_envelope_roundtrip_and_wire_bytes(self, rng):
        base, new = self._states(rng)
        update = ModelUpdate(
            client_id="c0", round_index=2, num_samples=5, state=new,
            train_loss=0.1, train_accuracy=0.8,
        )
        delta = make_delta(new, base)
        envelope = UpdateEnvelope.from_update(update, delta=delta)
        assert envelope.wire_nbytes == delta.nbytes
        reopened = envelope.open(base=base)
        assert reopened.payload_nbytes == delta.nbytes
        for key in base:
            np.testing.assert_array_equal(reopened.state[key], apply_delta(base, delta)[key])

    def test_delta_envelope_requires_base(self, rng):
        base, new = self._states(rng)
        update = ModelUpdate(client_id="c0", round_index=0, num_samples=5, state=new)
        envelope = UpdateEnvelope.from_update(update, delta=make_delta(new, base))
        with pytest.raises(ValueError):
            envelope.open()

    def test_apply_delta_rejects_mismatched_keys(self, rng):
        base, new = self._states(rng)
        delta = make_delta(new, base)
        with pytest.raises(ValueError):
            apply_delta({"w": base["w"]}, delta)

    def test_unknown_compression_rejected(self, rng):
        images, labels = _toy_data(rng)
        with pytest.raises(ValueError):
            FederationRuntime(
                _mlp_factory(),
                _honest_clients(images, labels),
                compression="gzip",
            )

    def _round_with(self, compression, rng_seed=21):
        set_global_seed(808)
        rng = np.random.default_rng(rng_seed)
        images, labels = _toy_data(rng)
        runtime = FederationRuntime(
            _mlp_factory(),
            _honest_clients(images, labels),
            compression=compression,
        )
        result = runtime.run_round(images, labels)
        return runtime, result

    def test_quantized_round_cuts_bytes_on_wire(self):
        _, dense = self._round_with("none")
        runtime, quant = self._round_with("delta-int8")
        assert quant.update_bytes * 3 <= dense.update_bytes
        stats = runtime.secure_stats
        assert stats.update_payload_bytes == quant.update_bytes
        assert stats.update_dense_bytes >= 3 * stats.update_payload_bytes
        # Accuracy stays in the same regime despite int8 update coding.
        assert abs(quant.global_accuracy - dense.global_accuracy) <= 0.2

    def test_float_delta_round_matches_dense_sizes(self):
        """Un-quantized deltas reshape the payload, not its size."""
        _, dense = self._round_with("none")
        _, delta = self._round_with("delta")
        assert delta.update_bytes == dense.update_bytes
        assert np.isfinite(delta.global_accuracy)
