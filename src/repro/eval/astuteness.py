"""Evaluation metrics: astuteness (robust accuracy) over correctly classified samples.

The paper's metric (§V-A) is *astuteness*: the robust accuracy of a defender
over a set of samples it originally classified correctly, after adversarial
perturbations are added.  A perfectly astute defender keeps classifying every
perturbed sample correctly, so its robust accuracy stays at 100 %.
"""

from __future__ import annotations

import numpy as np


def select_correctly_classified(
    predict_fn,
    images: np.ndarray,
    labels: np.ndarray,
    max_samples: int,
    batch_size: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Select up to ``max_samples`` samples the defender classifies correctly.

    Mirrors the paper's protocol of evaluating robust accuracy over 1000
    correctly classified samples (so the robust accuracy with no attack is
    100 % by construction).
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    keep_images = []
    keep_labels = []
    total = 0
    for start in range(0, len(labels), batch_size):
        stop = start + batch_size
        predictions = predict_fn(images[start:stop])
        mask = predictions == labels[start:stop]
        keep_images.append(images[start:stop][mask])
        keep_labels.append(labels[start:stop][mask])
        total += int(mask.sum())
        if total >= max_samples:
            break
    if not keep_images:
        return images[:0], labels[:0]
    selected_images = np.concatenate(keep_images, axis=0)[:max_samples]
    selected_labels = np.concatenate(keep_labels, axis=0)[:max_samples]
    return selected_images, selected_labels


def robust_accuracy(predict_fn, adversarials: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
    """Fraction of adversarial samples still classified correctly by the defender."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        return float("nan")
    correct = 0
    for start in range(0, len(labels), batch_size):
        stop = start + batch_size
        predictions = predict_fn(adversarials[start:stop])
        correct += int((predictions == labels[start:stop]).sum())
    return correct / len(labels)
