"""Tests for the data substrate: synthetic datasets, loaders, splits, transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DataLoader,
    SyntheticImageConfig,
    SyntheticImageDataset,
    apply_patch,
    clip_to_unit,
    dirichlet_partition,
    iid_partition,
    make_cifar10_like,
    make_cifar100_like,
    make_dataset,
    make_imagenet_like,
)
from repro.utils.rng import set_global_seed


class TestSyntheticDataset:
    def test_shapes_and_ranges(self):
        dataset = make_cifar10_like(train_per_class=5, test_per_class=2)
        assert dataset.train_images.shape == (50, 3, 32, 32)
        assert dataset.test_images.shape == (20, 3, 32, 32)
        assert dataset.train_images.min() >= 0.0
        assert dataset.train_images.max() <= 1.0
        assert dataset.num_classes == 10
        assert dataset.image_shape == (3, 32, 32)
        assert len(dataset) == 50

    def test_every_class_is_present(self):
        dataset = make_cifar10_like(train_per_class=3, test_per_class=1)
        assert set(np.unique(dataset.train_labels)) == set(range(10))
        assert set(np.unique(dataset.test_labels)) == set(range(10))

    def test_generation_is_deterministic_for_a_seed(self):
        set_global_seed(7)
        first = make_cifar10_like(train_per_class=2, test_per_class=1)
        set_global_seed(7)
        second = make_cifar10_like(train_per_class=2, test_per_class=1)
        np.testing.assert_allclose(first.train_images, second.train_images)
        np.testing.assert_array_equal(first.train_labels, second.train_labels)

    def test_samples_cluster_around_their_prototype(self):
        dataset = make_cifar10_like(train_per_class=4, test_per_class=1)
        for class_index in range(3):
            class_images = dataset.train_images[dataset.train_labels == class_index]
            own = np.abs(class_images - dataset.prototypes[class_index]).mean()
            other = np.abs(class_images - dataset.prototypes[(class_index + 1) % 10]).mean()
            assert own < other

    def test_cifar100_and_imagenet_variants(self):
        assert make_cifar100_like(train_per_class=1, test_per_class=1, num_classes=30).num_classes == 30
        assert make_imagenet_like(train_per_class=1, test_per_class=1, num_classes=12).num_classes == 12

    def test_make_dataset_dispatch(self):
        assert make_dataset("cifar10", train_per_class=1, test_per_class=1).num_classes == 10
        with pytest.raises(KeyError):
            make_dataset("svhn")

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset(
                SyntheticImageConfig(name="bad", num_classes=2, image_size=4, prototype_resolution=8)
            )


class TestDataLoader:
    def test_batches_cover_everything_once(self, rng):
        images = rng.uniform(size=(23, 3, 4, 4))
        labels = np.arange(23)
        loader = DataLoader(images, labels, batch_size=5, shuffle=False)
        seen = np.concatenate([batch_labels for _, batch_labels in loader])
        np.testing.assert_array_equal(np.sort(seen), labels)
        assert len(loader) == 5

    def test_drop_last(self, rng):
        loader = DataLoader(
            rng.uniform(size=(10, 2)), np.arange(10), batch_size=4, shuffle=False, drop_last=True
        )
        batches = list(loader)
        assert len(batches) == 2
        assert len(loader) == 2

    def test_shuffling_changes_order_but_not_content(self, rng):
        labels = np.arange(16)
        loader = DataLoader(rng.uniform(size=(16, 2)), labels, batch_size=16, shuffle=True)
        _, first = next(iter(loader))
        assert set(first.tolist()) == set(labels.tolist())

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            DataLoader(rng.uniform(size=(4, 2)), np.arange(5))


class TestSplits:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=10, max_value=60))
    def test_iid_partition_is_a_partition(self, num_clients, num_samples):
        """Property: client shards are disjoint and cover every sample index."""
        labels = np.zeros(num_samples, dtype=np.int64)
        shards = iid_partition(labels, num_clients)
        combined = np.concatenate(shards)
        assert len(combined) == num_samples
        assert len(np.unique(combined)) == num_samples

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.floats(min_value=0.1, max_value=5.0))
    def test_dirichlet_partition_is_a_partition(self, num_clients, alpha):
        labels = np.repeat(np.arange(4), 12)
        shards = dirichlet_partition(labels, num_clients, alpha=alpha)
        combined = np.concatenate([shard for shard in shards if len(shard)])
        assert len(combined) == len(labels)
        assert len(np.unique(combined)) == len(labels)

    def test_partition_argument_validation(self):
        with pytest.raises(ValueError):
            iid_partition(np.zeros(4), 0)
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(4), 2, alpha=0.0)


class TestTransforms:
    def test_clip_to_unit(self):
        np.testing.assert_allclose(clip_to_unit(np.array([-0.5, 0.5, 1.5])), [0.0, 0.5, 1.0])

    def test_apply_patch_only_touches_region(self, rng):
        images = rng.uniform(size=(2, 3, 8, 8)) * 0.5
        patch = np.ones((3, 2, 2))
        patched = apply_patch(images, patch, row=3, col=4)
        np.testing.assert_allclose(patched[:, :, 3:5, 4:6], 1.0)
        mask = np.ones_like(images, dtype=bool)
        mask[:, :, 3:5, 4:6] = False
        np.testing.assert_allclose(patched[mask], images[mask])
