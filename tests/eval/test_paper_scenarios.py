"""End-to-end tests of the paper's scenarios (Table III, Table IV, Fig. 4)
through the experiment engine on unit-test-sized configurations."""

from __future__ import annotations

import pytest

from repro.eval.engine import (
    SHIELD_SETTINGS,
    ArtifactCache,
    ExperimentConfig,
    ExperimentEngine,
    Scenario,
)

_TINY = dict(
    image_size=16,
    train_per_class=24,
    test_per_class=6,
    train_epochs=6,
    train_lr=5e-3,
    eval_samples=10,
    attack_batch_size=10,
    max_attack_steps=4,
    apgd_steps=4,
    saga_steps=4,
    epsilon_scale=2.0,
)


class TestExperimentConfig:
    def test_resolved_num_classes_defaults(self):
        assert ExperimentConfig(dataset="cifar10").resolved_num_classes() == 10
        assert ExperimentConfig(dataset="cifar100").resolved_num_classes() == 100
        assert ExperimentConfig(dataset="imagenet").resolved_num_classes() == 20
        assert ExperimentConfig(dataset="cifar10", num_classes=10).resolved_num_classes() == 10

    def test_attack_suite_config_propagates_scale(self):
        config = ExperimentConfig(epsilon_scale=2.0, max_attack_steps=5)
        suite_config = config.attack_suite_config()
        assert suite_config.epsilon_scale == 2.0
        assert suite_config.max_steps == 5

    def test_dataset_respects_num_classes(self):
        config = ExperimentConfig(dataset="imagenet", num_classes=6, train_per_class=2, test_per_class=1)
        dataset = ArtifactCache().get_dataset(config)
        assert dataset.num_classes == 6

    def test_cifar10_class_count_is_fixed(self):
        with pytest.raises(ValueError):
            ArtifactCache().get_dataset(ExperimentConfig(dataset="cifar10", num_classes=7))


class TestExperimentConfigDefaults:
    def test_saga_alpha_override_defaults_to_balanced(self):
        assert ExperimentConfig().saga_alpha_cnn == 0.5

    def test_attacks_tuple_defaults_to_table3_suite(self):
        assert ExperimentConfig().attacks == ("fgsm", "pgd", "mim", "cw", "apgd")

    def test_upsampling_strategy_defaults_to_auto(self):
        assert ExperimentConfig().upsampling_strategy == "auto"


@pytest.mark.slow
class TestIndividualBenchmark:
    def test_table3_shape_reproduces(self):
        """Unit-test-scale Table III: shielding must help against PGD."""
        config = ExperimentConfig(
            dataset="cifar10",
            models=("simple_cnn",),
            attacks=("fgsm", "pgd"),
            **_TINY,
        )
        scenario = Scenario(name="individual_cifar10", kind="individual", config=config)
        results = ExperimentEngine().run(scenario, persist=False).results
        assert len(results) == 1
        result = results[0]
        assert result.clean_accuracy > 0.6
        assert set(result.robust) == {"fgsm", "pgd"}
        for attack in result.robust.values():
            assert 0.0 <= attack["unshielded"] <= 1.0
            assert 0.0 <= attack["shielded"] <= 1.0
        # The headline claim: shielding does not hurt and typically helps.
        assert result.robust["pgd"]["shielded"] >= result.robust["pgd"]["unshielded"]


@pytest.mark.slow
class TestEnsembleBenchmark:
    def test_table4_structure_and_shape(self):
        config = ExperimentConfig(
            dataset="cifar10",
            ensemble_vit="vit_b32",
            ensemble_cnn="simple_cnn",
            **_TINY,
        )
        scenario = Scenario(name="ensemble_cifar10", kind="ensemble", config=config)
        result = ExperimentEngine().run(scenario, persist=False).results
        assert set(result.robust) == set(SHIELD_SETTINGS)
        for setting in SHIELD_SETTINGS:
            for row in ("vit", "cnn", "ensemble"):
                assert 0.0 <= result.robust[setting][row] <= 1.0
        assert result.eval_samples > 0
        # Shielding both members must not be worse than shielding nothing.
        assert result.robust["both"]["ensemble"] >= result.robust["none"]["ensemble"]

    def test_fig4_sample_study(self):
        config = ExperimentConfig(
            dataset="cifar10",
            ensemble_vit="vit_b32",
            ensemble_cnn="simple_cnn",
            **_TINY,
        )
        scenario = Scenario(name="saga_sample_cifar10", kind="saga_samples", config=config)
        study = ExperimentEngine().run(scenario, persist=False).results
        assert set(study.settings) == set(SHIELD_SETTINGS)
        for outcome in study.settings.values():
            assert outcome["linf"] <= 0.031 * 2.0 + 1e-9
            assert isinstance(outcome["attack_success"], bool)


@pytest.mark.slow
class TestTrainDefender:
    def test_trained_defender_reaches_reasonable_accuracy(self):
        config = ExperimentConfig(dataset="cifar10", **_TINY)
        cache = ArtifactCache()
        dataset = cache.get_dataset(config)
        model = cache.get_defender("simple_cnn", config)
        assert model.accuracy(dataset.test_images, dataset.test_labels) > 0.6
        assert not model.training
