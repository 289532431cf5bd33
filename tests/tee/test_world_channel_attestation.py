"""Tests for world switching, the secure channel and attestation."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tee import (
    EncryptedMessage,
    SecureChannel,
    SecureChannelError,
    WorldBoundary,
    WorldSwitchCostModel,
    establish_session,
    measure_payload,
    produce_quote,
    verify_quote,
)
from repro.tee.secure_channel import _keystream


class TestWorldBoundary:
    def test_switch_counting_and_direction(self):
        boundary = WorldBoundary()
        boundary.enter_secure_world(1000)
        assert boundary.in_secure_world
        boundary.exit_secure_world(500)
        assert not boundary.in_secure_world
        assert boundary.stats.switches == 2
        assert boundary.stats.bytes_in == 1000
        assert boundary.stats.bytes_out == 500

    def test_simulated_time_grows_with_payload(self):
        boundary = WorldBoundary()
        small = boundary.secure_call(1024, 1024)
        large = boundary.secure_call(10 * 1024 * 1024, 1024)
        assert large > small

    def test_cost_model_transfer_time_monotone(self):
        model = WorldSwitchCostModel()
        assert model.transfer_time_us(2 * 1024 * 1024) > model.transfer_time_us(1024)

    def test_reset(self):
        boundary = WorldBoundary()
        boundary.secure_call(100, 100)
        boundary.reset()
        assert boundary.stats.switches == 0
        assert boundary.stats.simulated_time_us == 0.0

    def test_switch_latency_dominates_for_tiny_payloads(self):
        model = WorldSwitchCostModel(switch_latency_us=100.0)
        boundary = WorldBoundary(model)
        elapsed = boundary.enter_secure_world(8)
        assert elapsed == pytest.approx(100.0, rel=0.1)


class TestSecureChannel:
    def test_roundtrip(self, rng):
        sender, receiver = establish_session(rng)
        message = sender.encrypt(b"gradient payload")
        assert receiver.decrypt(message) == b"gradient payload"

    def test_ciphertext_differs_from_plaintext(self, rng):
        sender, _ = establish_session(rng)
        message = sender.encrypt(b"secret-weights")
        assert message.ciphertext != b"secret-weights"

    def test_tampering_is_detected(self, rng):
        sender, receiver = establish_session(rng)
        message = sender.encrypt(b"secret")
        tampered = EncryptedMessage(
            nonce=message.nonce,
            ciphertext=bytes([message.ciphertext[0] ^ 0xFF]) + message.ciphertext[1:],
            mac=message.mac,
        )
        with pytest.raises(SecureChannelError):
            receiver.decrypt(tampered)

    def test_wrong_key_fails(self, rng):
        sender, _ = establish_session(rng)
        eavesdropper = SecureChannel(b"0" * 32)
        message = sender.encrypt(b"secret")
        with pytest.raises(SecureChannelError):
            eavesdropper.decrypt(message)

    def test_array_roundtrip(self, rng):
        sender, receiver = establish_session(rng)
        array = rng.normal(size=(4, 5)).astype(np.float32)
        message, shape, dtype = sender.encrypt_array(array)
        recovered = receiver.decrypt_array(message, shape, dtype)
        np.testing.assert_allclose(recovered, array)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SecureChannel(b"short")

    def test_statistics_accumulate(self, rng):
        sender, _ = establish_session(rng)
        sender.encrypt(b"abc")
        sender.encrypt(b"defg")
        assert sender.messages_sent == 2
        assert sender.bytes_sent == 7

    def test_known_answer_wire_format(self):
        # Pins nonces, keystream, ciphertext and MAC byte for byte: any change
        # to the cipher's internals must reproduce this digest exactly.
        channel = SecureChannel(b"k" * 32, rng=np.random.default_rng(0))
        digest = hashlib.sha256()
        for size in (0, 1, 31, 32, 33, 24576, 100003):
            payload = (bytes(range(256)) * (size // 256 + 1))[:size]
            message = channel.encrypt(payload)
            assert len(message.ciphertext) == size
            assert channel.decrypt(message) == payload
            digest.update(message.nonce + message.ciphertext + message.mac)
        assert digest.hexdigest() == (
            "92fc837b30b477b2f45d83adceef993ed79d0b95a967437556da2f247fa2ad7d"
        )

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 24576, 100003])
    def test_keystream_is_shake128_of_key_and_nonce(self, size):
        key, nonce = b"k" * 32, bytes(range(16))
        stream = _keystream(key, nonce, size)
        assert stream.dtype == np.uint8 and stream.shape == (size,)
        assert stream.tobytes() == hashlib.shake_128(key + nonce).digest(size)

    def test_nonces_under_one_key_give_different_streams(self):
        key = b"k" * 32
        first = _keystream(key, bytes(16), 4096)
        second = _keystream(key, bytes(15) + b"\x01", 4096)
        # Independent streams agree on ~1 byte in 256 (16 of 4096) by chance.
        assert np.count_nonzero(first == second) < 64

    @pytest.mark.parametrize("tamper", ["nonce", "truncate", "mac"])
    def test_rejects_tampered_envelope(self, tamper):
        sender = SecureChannel(b"k" * 32, rng=np.random.default_rng(0))
        message = sender.encrypt(b"sealed model update " * 4)
        other = sender.encrypt(b"sealed model update " * 4)
        if tamper == "nonce":
            forged = dataclasses.replace(
                message, nonce=bytes([message.nonce[0] ^ 1]) + message.nonce[1:]
            )
        elif tamper == "truncate":
            forged = dataclasses.replace(message, ciphertext=message.ciphertext[:-1])
        else:
            forged = dataclasses.replace(message, mac=other.mac)
        with pytest.raises(SecureChannelError):
            SecureChannel(b"k" * 32).decrypt(forged)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.normal(size=(3, 7)).astype(np.float32),
            lambda rng: rng.normal(size=(2, 3, 5)),
            lambda rng: rng.integers(-128, 128, size=(9,)).astype(np.int8),
            lambda rng: rng.normal(size=(4, 6)).astype(np.float32).T,
        ],
        ids=["float32", "float64", "int8", "transposed"],
    )
    def test_decrypt_array_returns_a_fresh_exact_copy(self, rng, make):
        sender, receiver = establish_session(rng)
        array = make(rng)
        message, shape, dtype = sender.encrypt_array(array)
        recovered = receiver.decrypt_array(message, shape, dtype)
        assert recovered.shape == array.shape
        assert recovered.dtype == array.dtype
        assert recovered.tobytes() == np.ascontiguousarray(array).tobytes()
        assert recovered.flags.writeable and recovered.flags.owndata
        ciphertext = np.frombuffer(message.ciphertext, dtype=np.uint8)
        assert not np.shares_memory(recovered, ciphertext)
        recovered[...] = 0
        assert receiver.decrypt_array(message, shape, dtype).tobytes() == (
            np.ascontiguousarray(array).tobytes()
        )

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=256))
    def test_roundtrip_property(self, payload):
        sender = SecureChannel(b"k" * 32, rng=np.random.default_rng(0))
        receiver = SecureChannel(b"k" * 32)
        assert receiver.decrypt(sender.encrypt(payload)) == payload


class TestAttestation:
    def test_quote_verifies_with_correct_inputs(self):
        measurement = measure_payload([b"stem-weights", b"code"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert verify_quote(quote, measurement, b"nonce", b"key")

    def test_quote_rejects_wrong_nonce(self):
        measurement = measure_payload([b"x"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert not verify_quote(quote, measurement, b"other-nonce", b"key")

    def test_quote_rejects_wrong_measurement(self):
        measurement = measure_payload([b"x"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert not verify_quote(quote, measure_payload([b"y"]), b"nonce", b"key")

    def test_quote_rejects_wrong_key(self):
        measurement = measure_payload([b"x"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert not verify_quote(quote, measurement, b"nonce", b"other-key")

    def test_measurement_is_deterministic_and_order_sensitive(self):
        assert measure_payload([b"a", b"b"]) == measure_payload([b"a", b"b"])
        assert measure_payload([b"a", b"b"]) != measure_payload([b"b", b"a"])
