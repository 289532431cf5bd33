"""Data substrate: synthetic benchmark datasets, loaders, transforms, splits."""

from repro.data.batching import DataLoader
from repro.data.splits import dirichlet_partition, iid_partition
from repro.data.synthetic import (
    DATASET_FACTORIES,
    SyntheticImageConfig,
    SyntheticImageDataset,
    make_cifar10_like,
    make_cifar100_like,
    make_dataset,
    make_imagenet_like,
)
from repro.data.transforms import apply_patch, clip_to_unit

__all__ = [
    "DATASET_FACTORIES",
    "DataLoader",
    "SyntheticImageConfig",
    "SyntheticImageDataset",
    "apply_patch",
    "clip_to_unit",
    "dirichlet_partition",
    "iid_partition",
    "make_cifar10_like",
    "make_cifar100_like",
    "make_dataset",
    "make_imagenet_like",
]
