"""Cross-module integration tests: the full PELTA story on tiny models.

These tests exercise the end-to-end pipeline the paper describes: an FL
deployment broadcasts a model, a compromised client probes its local copy
with white-box attacks, and PELTA's shielding degrades those attacks to
near-random effectiveness while leaving the model's task accuracy untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import PGD, RandomUniform, make_attacker_view
from repro.core import ShieldedModel
from repro.eval import robust_accuracy, select_correctly_classified
from repro.tee import EnclaveAccessError

from tests.shield_checks import chain_rule_is_broken


@pytest.mark.slow
class TestShieldingEndToEnd:
    def test_pgd_breaks_clear_model_but_not_shielded_model(self, trained_tiny_cnn, tiny_dataset):
        model = trained_tiny_cnn
        images, labels = select_correctly_classified(
            model.predict, tiny_dataset.test_images, tiny_dataset.test_labels, 20
        )
        assert len(labels) >= 10, "the shared tiny CNN should classify most test samples"
        attack = PGD(epsilon=0.08, step_size=0.02, steps=8)

        clear_adv = attack.run(make_attacker_view(model), images, labels).adversarials
        shielded = ShieldedModel(model)
        shielded_adv = attack.run(make_attacker_view(shielded), images, labels).adversarials

        clear_robust = robust_accuracy(model.predict, clear_adv, labels)
        shielded_robust = robust_accuracy(model.predict, shielded_adv, labels)
        # The Table III shape: white-box PGD is devastating, the shielded
        # attacker does clearly worse.
        assert clear_robust <= 0.5
        assert shielded_robust >= clear_robust + 0.3

    def test_shielded_attack_is_no_better_than_random_noise(self, trained_tiny_cnn, tiny_dataset):
        model = trained_tiny_cnn
        images, labels = select_correctly_classified(
            model.predict, tiny_dataset.test_images, tiny_dataset.test_labels, 20
        )
        epsilon = 0.08
        attack = PGD(epsilon=epsilon, step_size=0.02, steps=8)
        noise = RandomUniform(epsilon=epsilon)
        shielded = ShieldedModel(model)
        shielded_adv = attack.run(make_attacker_view(shielded), images, labels).adversarials
        noise_adv = noise.run(make_attacker_view(model), images, labels).adversarials
        shielded_robust = robust_accuracy(model.predict, shielded_adv, labels)
        noise_robust = robust_accuracy(model.predict, noise_adv, labels)
        # The shielded attacker is comparable to (not much better than) noise.
        assert shielded_robust >= noise_robust - 0.25

    def test_shielding_preserves_task_accuracy_exactly(self, trained_tiny_cnn, tiny_dataset):
        model = trained_tiny_cnn
        shielded = ShieldedModel(model)
        np.testing.assert_array_equal(
            shielded.predict(tiny_dataset.test_images), model.predict(tiny_dataset.test_images)
        )

    def test_shield_report_breaks_chain_rule_on_real_model(self, trained_tiny_cnn, tiny_dataset):
        from repro.autodiff import GraphSnapshot, Tensor
        from repro.autodiff import functional as F
        from repro.core.selection import select_shield_tagged
        from repro.core.shielding import pelta_shield

        model = trained_tiny_cnn
        shielded = ShieldedModel(model)
        inputs = Tensor(
            tiny_dataset.test_images[:2], requires_grad=True, is_input=True, name="input"
        )
        logits = shielded(inputs)
        loss = F.cross_entropy(logits, tiny_dataset.test_labels[:2], reduction="sum")
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_shield_tagged(graph))
        assert chain_rule_is_broken(graph, report)

    def test_attacker_cannot_read_shielded_quantities(self, trained_tiny_cnn, tiny_dataset):
        shielded = ShieldedModel(trained_tiny_cnn)
        view = make_attacker_view(shielded)
        with pytest.raises(EnclaveAccessError):
            view.true_input_gradient(tiny_dataset.test_images[:2], tiny_dataset.test_labels[:2])
        for key in shielded.enclave.sealed_keys():
            with pytest.raises(EnclaveAccessError):
                shielded.enclave.unseal(key)

    def test_enclave_usage_fits_trustzone_budget(self, trained_tiny_cnn, tiny_dataset):
        shielded = ShieldedModel(trained_tiny_cnn)
        view = make_attacker_view(shielded)
        view.gradient(tiny_dataset.test_images[:4], tiny_dataset.test_labels[:4])
        assert shielded.enclave.used_bytes < shielded.enclave.memory_limit_bytes
        shielded.enclave.check_capacity()  # must not raise


@pytest.mark.slow
class TestVitShielding:
    def test_vit_frontier_upsampling_is_weak(self, trained_tiny_vit, tiny_dataset):
        model = trained_tiny_vit
        images, labels = select_correctly_classified(
            model.predict, tiny_dataset.test_images, tiny_dataset.test_labels, 16
        )
        if len(labels) < 8:
            pytest.skip("tiny ViT did not learn enough correctly classified samples")
        attack = PGD(epsilon=0.08, step_size=0.02, steps=8)
        clear = robust_accuracy(
            model.predict, attack.run(make_attacker_view(model), images, labels).adversarials, labels
        )
        shielded_view = make_attacker_view(ShieldedModel(model))
        shielded = robust_accuracy(
            model.predict, attack.run(shielded_view, images, labels).adversarials, labels
        )
        assert shielded >= clear
