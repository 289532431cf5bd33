"""Tests for the FL clients (honest and compromised), runtime rounds and poisoning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import PGD
from repro.data.splits import iid_partition
from repro.fl import (
    ClientConfig,
    CompromisedClient,
    FederationRuntime,
    GlobalModelBroadcast,
    HonestClient,
    RoundHooks,
    add_backdoor_trigger,
    fedavg,
    flip_labels,
    poison_with_backdoor,
)
from repro.fl.runtime import client_task_seed
from repro.models.simple import MLPClassifier


def _mlp_factory():
    return MLPClassifier(input_dim=12, num_classes=3, hidden_dim=12, input_shape=(3, 2, 2))


def _iid_clients(images, labels, parts, config=None):
    """One honest client per index array in ``parts``."""
    return [
        HonestClient(f"client{i}", _mlp_factory, images[part], labels[part], config=config)
        for i, part in enumerate(parts)
    ]


def _toy_federated_data(rng, samples_per_class: int = 30):
    """A linearly separable 3-class problem on 3x2x2 'images'."""
    prototypes = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
    ])
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


class TestHonestClient:
    def test_receive_installs_global_state(self, rng):
        images, labels = _toy_federated_data(rng)
        client = HonestClient("c0", _mlp_factory, images[:30], labels[:30])
        reference = _mlp_factory()
        client.receive(GlobalModelBroadcast(round_index=0, state=reference.state_dict()))
        for (_, a), (_, b) in zip(client.model.named_parameters(), reference.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_local_update_reports_sample_count_and_trains(self, rng):
        images, labels = _toy_federated_data(rng)
        client = HonestClient(
            "c0", _mlp_factory, images[:60], labels[:60],
            config=ClientConfig(local_epochs=2, batch_size=16, learning_rate=0.05),
        )
        update = client.local_update(round_index=3)
        assert update.client_id == "c0"
        assert update.round_index == 3
        assert update.num_samples == 60
        assert set(update.state) == set(_mlp_factory().state_dict())
        assert np.isfinite(update.train_loss)


class TestRuntimeRounds:
    def test_round_improves_global_accuracy(self, rng):
        images, labels = _toy_federated_data(rng, samples_per_class=40)
        config = ClientConfig(local_epochs=2, batch_size=16, learning_rate=0.05)
        clients = _iid_clients(images, labels, iid_partition(labels, 3, rng=rng), config)
        runtime = FederationRuntime(_mlp_factory(), clients)
        before = runtime.global_model.accuracy(images, labels)
        result = runtime.run(3, eval_images=images, eval_labels=labels)
        assert len(result.rounds) == 3
        assert result.final_accuracy > before
        assert result.final_accuracy > 0.8

    def test_round_installs_fedavg_of_client_updates(self, rng):
        """The streamed round installs exactly the batch FedAvg of its updates."""
        images, labels = _toy_federated_data(rng)
        parts = iid_partition(labels, 2, rng=rng)
        runtime = FederationRuntime(_mlp_factory(), _iid_clients(images, labels, parts), seed=11)
        broadcast = GlobalModelBroadcast(round_index=0, state=runtime.global_model.state_dict())
        updates = []
        for client in _iid_clients(images, labels, parts):
            client.receive(broadcast.copy())
            seed = client_task_seed(11, 0, client.client_id)
            updates.append(client.local_update(0, rng=np.random.default_rng(seed)))
        runtime.run_round()
        expected = fedavg(updates)
        for name, value in runtime.global_model.state_dict().items():
            np.testing.assert_array_equal(value, expected[name])


    def test_aggregate_hook_sees_every_update_once_per_round(self, rng):
        """A custom rule receives the round's opened updates and its result is installed."""
        images, labels = _toy_federated_data(rng)
        seen: list[list[str]] = []

        def spy(updates):
            seen.append([update.client_id for update in updates])
            return fedavg(updates)

        clients = _iid_clients(images, labels, iid_partition(labels, 2, rng=rng))
        runtime = FederationRuntime(_mlp_factory(), clients, hooks=RoundHooks(aggregate=spy))
        runtime.run(2)
        assert seen == [["client0", "client1"]] * 2
        assert runtime.round_index == 2

    def test_round_result_records_compromised_clients(self, rng):
        images, labels = _toy_federated_data(rng)
        honest = HonestClient("h", _mlp_factory, images[:30], labels[:30])
        compromised = CompromisedClient(
            "evil", _mlp_factory, images[30:60], labels[30:60],
            attack=PGD(epsilon=0.1, step_size=0.02, steps=2),
        )
        runtime = FederationRuntime(_mlp_factory(), [honest, compromised])
        result = runtime.run_round(images, labels)
        assert result.compromised_clients == ["evil"]
        assert result.participating_clients == ["h", "evil"]
        assert result.update_bytes > 0
        assert 0.0 <= result.global_accuracy <= 1.0
        assert runtime.round_index == 1


class TestCompromisedClient:
    def test_probe_in_full_whitebox_beats_shielded_probe(self, rng):
        images, labels = _toy_federated_data(rng, samples_per_class=40)
        config = ClientConfig(local_epochs=3, batch_size=16, learning_rate=0.08)
        attack = PGD(epsilon=0.15, step_size=0.03, steps=8)

        clear_client = CompromisedClient(
            "clear", _mlp_factory, images, labels, attack=attack, config=config, shield_model=False
        )
        shielded_client = CompromisedClient(
            "shielded", _mlp_factory, images, labels, attack=attack, config=config, shield_model=True
        )
        # Both clients first train their local copy so the attack has a real target.
        clear_client.local_update(0)
        shielded_client.model.load_state_dict(clear_client.model.state_dict())

        clear_result = clear_client.probe_for_adversarial_examples(max_samples=24)
        shielded_result = shielded_client.probe_for_adversarial_examples(max_samples=24)
        assert clear_result.success_rate >= shielded_result.success_rate

    def test_poisoning_relabels_part_of_the_local_dataset(self, rng):
        images, labels = _toy_federated_data(rng)
        client = CompromisedClient(
            "evil", _mlp_factory, images[:40], labels[:40],
            attack=PGD(epsilon=0.1, step_size=0.05, steps=1),
            poison_target=0, poison_fraction=0.5,
            config=ClientConfig(local_epochs=1, batch_size=16),
        )
        original_labels = client.labels.copy()
        client.local_update(0)
        assert (client.labels == 0).sum() >= (original_labels == 0).sum()


class TestPoisoningHelpers:
    def test_flip_labels_fraction(self):
        labels = np.zeros(10, dtype=np.int64)
        flipped = flip_labels(labels, num_classes=5, fraction=0.5)
        assert (flipped != 0).sum() == 5

    def test_flip_labels_validates_fraction(self):
        with pytest.raises(ValueError):
            flip_labels(np.zeros(4, dtype=np.int64), 2, fraction=1.5)

    def test_backdoor_trigger_is_stamped(self, rng):
        images = rng.uniform(size=(3, 3, 8, 8)) * 0.2
        stamped = add_backdoor_trigger(images, trigger_size=2)
        np.testing.assert_allclose(stamped[:, :, -2:, -2:], 1.0)

    def test_backdoor_trigger_corners(self, rng):
        images = np.zeros((1, 1, 4, 4))
        assert add_backdoor_trigger(images, trigger_size=1, corner="top_left")[0, 0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            add_backdoor_trigger(images, corner="middle")

    def test_poison_with_backdoor_relabels(self, rng):
        images = rng.uniform(size=(10, 3, 8, 8))
        labels = np.arange(10) % 3 + 1
        poisoned_images, poisoned_labels = poison_with_backdoor(
            images, labels, target_class=0, fraction=0.4
        )
        assert (poisoned_labels == 0).sum() == 4
        assert poisoned_images.shape == images.shape
