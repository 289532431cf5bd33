"""Tests for ShieldedModel and the attacker-facing gradient views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.bpda import make_attacker_view
from repro.autodiff import EagerExecution, Tensor
from repro.core import (
    FullWhiteBoxView,
    RestrictedWhiteBoxView,
    ShieldedModel,
    measure_shielded_model,
)
from repro.core.views import _per_sample_loss
from repro.models.simple import SimpleCNN, SimpleCNNConfig
from repro.models.vit import ViTConfig, VisionTransformer
from repro.tee import Enclave, EnclaveAccessError, TrustZoneEnclave

from tests.shield_checks import chain_rule_is_broken


def _tiny_cnn() -> SimpleCNN:
    return SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=4, widths=(4, 8), image_size=8))


def _tiny_vit() -> VisionTransformer:
    return VisionTransformer(
        ViTConfig(image_size=8, patch_size=4, in_channels=3, num_classes=4, dim=12, depth=1, num_heads=2)
    )


class TestShieldedModel:
    def test_predictions_match_unshielded_model(self, rng):
        model = _tiny_cnn()
        shielded = ShieldedModel(model)
        inputs = rng.uniform(size=(5, 3, 8, 8))
        np.testing.assert_array_equal(shielded.predict(inputs), model.predict(inputs))
        np.testing.assert_allclose(shielded.logits(inputs), model.logits(inputs))

    def test_stem_parameters_are_sealed(self):
        model = _tiny_cnn()
        shielded = ShieldedModel(model)
        assert shielded.sealed_parameter_bytes == sum(p.nbytes for p in model.stem_parameters())
        assert len(shielded.enclave.sealed_keys()) == len(model.stem_parameters())
        assert all(p.shielded for p in model.stem_parameters())

    def test_default_enclave_is_trustzone(self):
        shielded = ShieldedModel(_tiny_cnn())
        assert isinstance(shielded.enclave, TrustZoneEnclave)

    def test_frontier_is_recorded_and_clear(self, rng):
        model = _tiny_vit()
        shielded = ShieldedModel(model)
        shielded.logits(rng.uniform(size=(2, 3, 8, 8)))
        frontier = shielded.last_frontier
        assert frontier is not None
        assert not frontier.shielded
        assert frontier.shape == (2, model.config.sequence_length, model.config.dim)

    def test_world_boundary_counts_crossings(self, rng):
        shielded = ShieldedModel(_tiny_cnn())
        shielded.logits(rng.uniform(size=(2, 3, 8, 8)))
        assert shielded.enclave.boundary.stats.switches == 2
        shielded.logits(rng.uniform(size=(2, 3, 8, 8)))
        assert shielded.enclave.boundary.stats.switches == 4

    def test_regions_flushed_between_forwards(self, rng):
        shielded = ShieldedModel(_tiny_cnn())
        shielded.logits(rng.uniform(size=(2, 3, 8, 8)))
        first = shielded.enclave.used_bytes
        shielded.logits(rng.uniform(size=(2, 3, 8, 8)))
        assert shielded.enclave.used_bytes == first  # not accumulating

    def test_shield_report_breaks_chain_rule(self, rng):
        model = _tiny_cnn()
        shielded = ShieldedModel(model)
        inputs = rng.uniform(size=(2, 3, 8, 8))
        labels = np.array([0, 1])
        report = shielded.shield_report(inputs, labels)
        # The report's invariant is the core claim of the defense.
        from repro.autodiff import GraphSnapshot  # local import to rebuild the same graph

        assert report.shielded_value_ids
        assert report.shielded_jacobian_edges

    def test_shielded_fraction_is_small(self):
        shielded = ShieldedModel(_tiny_vit())
        fraction = shielded.shielded_fraction()
        assert 0.0 < fraction < 0.6

    def test_delegated_properties(self):
        model = _tiny_cnn()
        shielded = ShieldedModel(model)
        assert shielded.num_classes == model.num_classes
        assert shielded.input_shape == model.input_shape
        assert shielded.family == model.family

    def test_enclave_memory_measurement(self, rng):
        model = _tiny_vit()
        shielded = ShieldedModel(model)
        estimate = measure_shielded_model(
            shielded, rng.uniform(size=(1, 3, 8, 8)), np.array([1])
        )
        assert estimate.parameter_bytes == sum(p.nbytes for p in model.stem_parameters())
        assert estimate.activation_bytes > 0
        assert estimate.worst_case_bytes < shielded.enclave.memory_limit_bytes
        assert 0.0 < estimate.shielded_portion < 1.0


class TestFullWhiteBoxView:
    def test_gradient_matches_autodiff_direct(self, rng):
        model = _tiny_cnn()
        view = FullWhiteBoxView(model)
        inputs = rng.uniform(size=(2, 3, 8, 8))
        labels = np.array([0, 1])
        via_view = view.gradient(inputs, labels, loss="ce")
        # Direct computation through the autodiff engine.
        from repro.autodiff import functional as F

        tensor = Tensor(inputs, requires_grad=True, is_input=True)
        F.cross_entropy(model(tensor), labels, reduction="sum").backward()
        np.testing.assert_allclose(via_view, tensor.grad)

    def test_margin_loss_gradient_shape(self, rng):
        view = FullWhiteBoxView(_tiny_cnn())
        inputs = rng.uniform(size=(3, 3, 8, 8))
        labels = np.array([0, 1, 2])
        grad = view.gradient(inputs, labels, loss="margin", confidence=5.0)
        assert grad.shape == inputs.shape

    def test_loss_values_match_manual_cross_entropy(self, rng):
        view = FullWhiteBoxView(_tiny_cnn())
        inputs = rng.uniform(size=(4, 3, 8, 8))
        labels = np.array([0, 1, 2, 3])
        losses = view.loss(inputs, labels, loss="ce")
        logits = view.logits(inputs)
        manual = _per_sample_loss(logits, labels, "ce", 0.0)
        np.testing.assert_allclose(losses, manual)
        assert losses.shape == (4,)

    def test_unknown_loss_rejected(self, rng):
        view = FullWhiteBoxView(_tiny_cnn())
        with pytest.raises(ValueError):
            view.gradient(rng.uniform(size=(1, 3, 8, 8)), np.array([0]), loss="bogus")


class TestRestrictedWhiteBoxView:
    def test_requires_shielded_model(self):
        with pytest.raises(TypeError):
            RestrictedWhiteBoxView(_tiny_cnn(), upsampler=lambda a, s: a)

    def test_true_input_gradient_is_blocked(self, rng):
        view = make_attacker_view(ShieldedModel(_tiny_cnn()))
        with pytest.raises(EnclaveAccessError):
            view.true_input_gradient(rng.uniform(size=(1, 3, 8, 8)), np.array([0]))

    def test_adjoint_has_frontier_shape(self, rng):
        model = _tiny_vit()
        view = make_attacker_view(ShieldedModel(model))
        inputs = rng.uniform(size=(2, 3, 8, 8))
        adjoint, input_shape = view.adjoint(inputs, np.array([0, 1]))
        assert adjoint.shape == (2, model.config.sequence_length, model.config.dim)
        assert input_shape == inputs.shape

    def test_gradient_has_input_shape_but_differs_from_true_gradient(self, rng):
        model = _tiny_cnn()
        shielded = ShieldedModel(model)
        restricted = make_attacker_view(shielded)
        full = FullWhiteBoxView(model)
        inputs = rng.uniform(size=(2, 3, 8, 8))
        labels = np.array([0, 1])
        substitute = restricted.gradient(inputs, labels)
        true_gradient = full.gradient(inputs, labels)
        assert substitute.shape == true_gradient.shape
        # The substitute must NOT be the true gradient (the whole point of PELTA).
        assert not np.allclose(substitute, true_gradient)
        cosine = float(
            (substitute * true_gradient).sum()
            / (np.linalg.norm(substitute) * np.linalg.norm(true_gradient) + 1e-12)
        )
        assert abs(cosine) < 0.9

    def test_logits_and_predictions_are_clear(self, rng):
        model = _tiny_cnn()
        view = make_attacker_view(ShieldedModel(model))
        inputs = rng.uniform(size=(3, 3, 8, 8))
        np.testing.assert_array_equal(view.predict(inputs), model.predict(inputs))

    def test_vit_attention_maps_remain_visible(self, rng):
        model = _tiny_vit()
        view = make_attacker_view(ShieldedModel(model))
        view.gradient(rng.uniform(size=(1, 3, 8, 8)), np.array([0]))
        assert len(view.attention_maps()) == model.config.depth


@pytest.mark.parametrize("shielded", [False, True], ids=["clear", "shielded"])
def test_attacker_views_start_eager(shielded):
    """A view starts eager; ``DriverConfig.backend`` is the one backend switch."""
    model = ShieldedModel(_tiny_cnn()) if shielded else _tiny_cnn()
    view = make_attacker_view(model)
    assert isinstance(view.backend, EagerExecution)
