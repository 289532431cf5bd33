"""Additional cross-cutting coverage: upsamplers, enclaves, the random baseline.

These tests close gaps that the per-module suites do not reach: the
flat-adjoint upsampler, caller-built enclaves, and a couple of
defensive-behaviour checks on the public API.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import RandomProjectionUpsampler, RandomUniform, make_attacker_view
from repro.core import RestrictedWhiteBoxView, ShieldedModel
from repro.models.simple import MLPClassifier, SimpleCNN, SimpleCNNConfig
from repro.tee import Enclave, TrustZoneEnclave


def _tiny_cnn() -> SimpleCNN:
    return SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=3, widths=(4, 8), image_size=8))


class TestFlatUpsamplerAndMlpShield:
    def test_random_projection_shape_and_determinism(self, rng):
        upsampler = RandomProjectionUpsampler(np.random.default_rng(3))
        adjoint = rng.normal(size=(4, 10))
        first = upsampler(adjoint, (4, 3, 4, 4))
        second = upsampler(adjoint, (4, 3, 4, 4))
        assert first.shape == (4, 3, 4, 4)
        np.testing.assert_allclose(first, second)

    def test_rejects_non_flat_adjoints(self, rng):
        with pytest.raises(ValueError):
            RandomProjectionUpsampler()(rng.normal(size=(1, 2, 3, 3)), (1, 3, 6, 6))

    def test_shielded_mlp_gets_restricted_view_automatically(self, rng):
        model = MLPClassifier(input_dim=27, num_classes=3, hidden_dim=8, input_shape=(3, 3, 3))
        view = make_attacker_view(ShieldedModel(model))
        assert isinstance(view, RestrictedWhiteBoxView)
        gradient = view.gradient(rng.uniform(size=(2, 3, 3, 3)), np.array([0, 1]))
        assert gradient.shape == (2, 3, 3, 3)


class TestEnclaveVariantsWithShieldedModels:
    def test_shielded_model_with_caller_built_enclave(self, rng):
        model = _tiny_cnn()
        enclave = Enclave("custom", memory_limit_bytes=1024 * 1024)
        shielded = ShieldedModel(model, enclave=enclave)
        predictions = shielded.predict(rng.uniform(size=(3, 3, 8, 8)))
        assert predictions.shape == (3,)
        assert shielded.enclave is enclave
        assert 0 < enclave.used_bytes <= enclave.memory_limit_bytes

    def test_custom_trustzone_budget_is_respected(self):
        from repro.tee import EnclaveMemoryError

        model = _tiny_cnn()
        tiny_enclave = TrustZoneEnclave(name="tiny", memory_limit_bytes=64)
        with pytest.raises(EnclaveMemoryError):
            ShieldedModel(model, enclave=tiny_enclave)

    def test_two_shielded_models_do_not_share_enclaves(self):
        first = ShieldedModel(_tiny_cnn())
        second = ShieldedModel(_tiny_cnn())
        assert first.enclave is not second.enclave
        assert first.enclave.sealed_keys() == second.enclave.sealed_keys()


class TestRandomBaselineAgainstShieldedModel:
    def test_random_attack_ignores_the_view_entirely(self, rng):
        """The random baseline produces the same perturbation budget either way."""
        model = _tiny_cnn()
        images = rng.uniform(size=(4, 3, 8, 8))
        labels = np.array([0, 1, 2, 0])
        attack = RandomUniform(epsilon=0.1, rng=np.random.default_rng(5))
        clear = attack.run(make_attacker_view(model), images, labels)
        attack_again = RandomUniform(epsilon=0.1, rng=np.random.default_rng(5))
        shielded = attack_again.run(make_attacker_view(ShieldedModel(model)), images, labels)
        np.testing.assert_allclose(clear.adversarials, shielded.adversarials)
