"""Federated (per-client) dataset partitions."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import spawn_rng


def iid_partition(
    labels: np.ndarray, num_clients: int, rng: np.random.Generator | None = None
) -> list[np.ndarray]:
    """Partition sample indices uniformly at random across ``num_clients``."""
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    rng = rng if rng is not None else spawn_rng("splits.iid")
    order = rng.permutation(len(labels))
    return [np.sort(part) for part in np.array_split(order, num_clients)]


def dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    alpha: float = 0.5,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Non-IID partition: per-class Dirichlet allocation across clients.

    Smaller ``alpha`` produces more heterogeneous client datasets, the usual
    way of stressing FL aggregation.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = rng if rng is not None else spawn_rng("splits.dirichlet")
    labels = np.asarray(labels)
    client_indices: list[list[int]] = [[] for _ in range(num_clients)]
    for class_value in np.unique(labels):
        class_indices = np.flatnonzero(labels == class_value)
        class_indices = rng.permutation(class_indices)
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        counts = np.floor(proportions * len(class_indices)).astype(int)
        # Distribute the rounding remainder to the largest shares.
        remainder = len(class_indices) - counts.sum()
        for offset in np.argsort(-proportions)[:remainder]:
            counts[offset] += 1
        start = 0
        for client, count in enumerate(counts):
            client_indices[client].extend(class_indices[start : start + count].tolist())
            start += count
    return [np.sort(np.asarray(indices, dtype=np.int64)) for indices in client_indices]
