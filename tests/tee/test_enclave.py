"""Tests for the enclave simulator: confidentiality and memory accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Parameter
from repro.tee import (
    Enclave,
    EnclaveAccessError,
    EnclaveMemoryError,
    TrustZoneEnclave,
)

_MB = 1024 * 1024


class TestSealedStorage:
    def test_seal_and_privileged_unseal(self, rng):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        secret = rng.normal(size=(8, 8))
        enclave.seal("weights", secret)
        recovered = enclave.unseal("weights", authorized=True)
        np.testing.assert_allclose(recovered, secret)

    def test_unauthorized_unseal_is_blocked(self, rng):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        enclave.seal("weights", rng.normal(size=(4,)))
        with pytest.raises(EnclaveAccessError):
            enclave.unseal("weights")

    def test_unseal_unknown_key(self):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        with pytest.raises(KeyError):
            enclave.unseal("missing", authorized=True)

    def test_sealing_a_tensor_marks_it_shielded(self, rng):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        tensor = Tensor(rng.normal(size=(3,)))
        assert not tensor.shielded
        enclave.seal("t", tensor)
        assert tensor.shielded

    def test_sealed_copy_is_independent(self, rng):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        array = rng.normal(size=(3,))
        enclave.seal("a", array)
        array[:] = 0.0
        assert not np.allclose(enclave.unseal("a", authorized=True), 0.0)

    def test_seal_parameters_and_keys(self):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        parameters = [Parameter(np.ones((2, 2)), name="w"), Parameter(np.ones(2), name="b")]
        sealed_bytes = enclave.seal_parameters(parameters, prefix="stem.")
        assert sealed_bytes == sum(p.nbytes for p in parameters)
        assert all(key.startswith("stem.") for key in enclave.sealed_keys())
        assert all(p.shielded for p in parameters)

    def test_discard_and_contains(self, rng):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        enclave.seal("x", rng.normal(size=(2,)))
        assert enclave.contains("x")
        enclave.discard("x")
        assert not enclave.contains("x")


class TestMemoryAccounting:
    def test_memory_limit_enforced_on_seal(self):
        enclave = Enclave("small", memory_limit_bytes=100)
        with pytest.raises(EnclaveMemoryError):
            enclave.seal("big", np.zeros(1000))

    def test_used_and_available_bytes(self, rng):
        enclave = Enclave("e", memory_limit_bytes=10_000)
        payload = rng.normal(size=(10, 10))
        enclave.seal("p", payload)
        assert enclave.used_bytes == payload.nbytes
        assert enclave.available_bytes == 10_000 - payload.nbytes

    def test_shield_scope_accounts_region_tensors(self):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        with enclave.shield_scope("stem"):
            value = Tensor(np.ones((16, 16)), requires_grad=True) * 2.0
        report = enclave.memory_report()
        assert report.region_value_bytes >= value.nbytes
        assert report.region_gradient_bytes >= value.nbytes
        assert report.total_bytes == enclave.used_bytes

    def test_flush_regions_releases_memory(self):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        with enclave.shield_scope("stem"):
            Tensor(np.ones((16, 16))) * 2.0
        assert enclave.used_bytes > 0
        enclave.flush_regions()
        assert enclave.used_bytes == 0

    def test_check_capacity_raises_when_regions_exceed_limit(self):
        enclave = Enclave("e", memory_limit_bytes=256)
        with enclave.shield_scope("stem"):
            Tensor(np.ones((16, 16))) * 2.0
        with pytest.raises(EnclaveMemoryError):
            enclave.check_capacity()


class TestEnclaveVariants:
    def test_trustzone_default_limit_is_30mb(self):
        assert TrustZoneEnclave().memory_limit_bytes == 30 * _MB

    def test_measurement_changes_with_content(self, rng):
        enclave = Enclave("e", memory_limit_bytes=_MB)
        empty_measurement = enclave.measurement()
        enclave.seal("w", rng.normal(size=(4,)))
        assert enclave.measurement() != empty_measurement

    def test_attest_produces_verifiable_quote(self, rng):
        from repro.tee import verify_quote

        enclave = Enclave("e", memory_limit_bytes=_MB)
        enclave.seal("w", rng.normal(size=(4,)))
        nonce = b"nonce-123"
        key = b"device-key"
        quote = enclave.attest(nonce, key)
        assert verify_quote(quote, enclave.measurement(), nonce, key)
