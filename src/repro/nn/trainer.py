"""Small training loop shared by examples, benchmarks and the FL substrate."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.data.batching import DataLoader
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam, Optimizer
from repro.utils.logging import get_logger

_LOGGER = get_logger("nn.trainer")


@dataclass
class TrainingHistory:
    """Per-epoch loss and accuracy of a training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else float("nan")


def make_optimizer(model: Module, name: str = "adam", lr: float = 1e-3, **kwargs) -> Optimizer:
    """Build an optimiser over a model's parameters by name."""
    if name == "adam":
        return Adam(model.parameters(), lr=lr, **kwargs)
    if name == "sgd":
        return SGD(model.parameters(), lr=lr, **kwargs)
    raise ValueError(f"unknown optimizer {name!r}")


def train_epoch(model: Module, loader: DataLoader, optimizer: Optimizer) -> tuple[float, float]:
    """Train for one epoch; returns (mean loss, training accuracy)."""
    model.train()
    total_loss = 0.0
    total_correct = 0
    total_samples = 0
    for images, labels in loader:
        optimizer.zero_grad()
        logits = model(Tensor(images))
        loss = F.cross_entropy(logits, labels, reduction="mean")
        loss.backward()
        optimizer.step()
        batch = len(labels)
        total_loss += float(loss.data) * batch
        total_correct += int((logits.data.argmax(axis=1) == labels).sum())
        total_samples += batch
    return total_loss / max(total_samples, 1), total_correct / max(total_samples, 1)


def fit_classifier(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 1e-3,
    optimizer: str = "adam",
    verbose: bool = False,
    rng: np.random.Generator | None = None,
) -> TrainingHistory:
    """Train a classifier on an in-memory dataset with cross-entropy loss.

    ``rng`` overrides the shuffle generator; the experiment engine passes a
    per-defender stream so a training run does not depend on how many other
    models were trained before it (a requirement for artifact-cache keys).
    """
    loader = DataLoader(images, labels, batch_size=batch_size, shuffle=True, rng=rng)
    optim = make_optimizer(model, optimizer, lr=lr)
    history = TrainingHistory()
    for epoch in range(epochs):
        loss, accuracy = train_epoch(model, loader, optim)
        history.losses.append(loss)
        history.accuracies.append(accuracy)
        if verbose:
            _LOGGER.info("epoch %d/%d loss=%.4f acc=%.3f", epoch + 1, epochs, loss, accuracy)
    model.eval()
    return history
