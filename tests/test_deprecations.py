"""The deprecated compatibility wrappers must keep warning external callers.

Every in-repo caller (examples/, benchmarks/, the engine cells) has been
migrated to the federation runtime and the attack driver; these tests pin
the wrappers' contract for *external* code: they still work, and they still
emit a :class:`DeprecationWarning` pointing at the replacement API.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.base import Attack
from repro.attacks.bpda import make_attacker_view
from repro.fl.client import HonestClient
from repro.fl.rounds import FederatedRunConfig, FederatedTrainer, build_federation
from repro.models.simple import MLPClassifier
from repro.utils.rng import set_global_seed


@pytest.fixture(autouse=True)
def _seed():
    set_global_seed(20230913)


def _mlp_factory() -> MLPClassifier:
    return MLPClassifier(input_dim=8, num_classes=3, hidden_dim=8)


def _federation(rng):
    images = rng.uniform(size=(24, 1, 1, 8))
    labels = rng.integers(0, 3, size=24)
    return build_federation(_mlp_factory, images, labels, num_clients=3)


class TestFederationWrappers:
    def test_run_round_warns_and_still_runs(self, rng):
        server, clients = _federation(rng)
        with pytest.warns(DeprecationWarning, match="FederationRuntime"):
            result = server.run_round(clients)
        assert result.round_index == 0
        assert len(result.participating_clients) == len(clients)

    def test_federated_trainer_warns_on_construction(self, rng):
        server, clients = _federation(rng)
        with pytest.warns(DeprecationWarning, match="FederationRuntime"):
            FederatedTrainer(server, clients, FederatedRunConfig(num_rounds=1))


class TestAttackWrappers:
    def test_craft_only_attack_warns_and_still_runs(self, rng):
        class CraftOnly(Attack):
            name = "craft_only"

            def craft(self, view, inputs, labels):
                gradient = view.gradient(inputs, labels)
                return np.clip(inputs + 0.05 * np.sign(gradient), 0.0, 1.0)

        model = _mlp_factory()
        inputs = rng.uniform(size=(4, 1, 1, 8))
        labels = model.predict(inputs)
        with pytest.warns(DeprecationWarning, match="IterativeAttack"):
            result = CraftOnly().run(make_attacker_view(model), inputs, labels)
        assert result.adversarials.shape == inputs.shape
        assert result.gradient_queries == 1

    def test_attack_gradient_helper_warns(self, rng):
        model = _mlp_factory()
        inputs = rng.uniform(size=(2, 1, 1, 8))
        labels = model.predict(inputs)
        view = make_attacker_view(model)
        with pytest.warns(DeprecationWarning, match="view.gradient"):
            gradient = Attack()._gradient(view, inputs, labels)
        assert gradient.shape == inputs.shape


class TestInRepoCallersAreMigrated:
    """No example or benchmark may trip the compatibility wrappers again."""

    def test_no_deprecated_calls_in_examples_and_benchmarks(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        offenders = []
        for path in sorted((root / "examples").glob("*.py")) + sorted(
            (root / "benchmarks").glob("*.py")
        ):
            text = path.read_text()
            for needle in (".run_round(", "FederatedTrainer(", "._gradient("):
                if needle in text:
                    offenders.append(f"{path.name}: {needle}")
        assert not offenders, f"deprecated API usage crept back in: {offenders}"
