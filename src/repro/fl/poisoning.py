"""Data poisoning helpers used by compromised FL clients.

The paper's introduction describes two dissemination strategies built on top
of adversarial examples: poisoning the local dataset to undermine robustness
and planting trojan triggers that open a backdoor.  These helpers implement
the data manipulation side of both.
"""

from __future__ import annotations

import numpy as np


def add_backdoor_trigger(
    images: np.ndarray,
    trigger_value: float = 1.0,
    trigger_size: int = 3,
    corner: str = "bottom_right",
) -> np.ndarray:
    """Stamp a small solid trigger square into every image of a batch."""
    images = np.array(images, copy=True)
    size = trigger_size
    if corner == "bottom_right":
        images[:, :, -size:, -size:] = trigger_value
    elif corner == "top_left":
        images[:, :, :size, :size] = trigger_value
    elif corner == "top_right":
        images[:, :, :size, -size:] = trigger_value
    elif corner == "bottom_left":
        images[:, :, -size:, :size] = trigger_value
    else:
        raise ValueError(f"unknown corner {corner!r}")
    return np.clip(images, 0.0, 1.0)


def poison_with_backdoor(
    images: np.ndarray,
    labels: np.ndarray,
    target_class: int,
    fraction: float = 0.5,
    trigger_size: int = 3,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Backdoor-poison a fraction of a dataset: add trigger, relabel to target."""
    images = np.array(images, copy=True)
    labels = np.array(labels, copy=True)
    count = int(round(fraction * len(labels)))
    if count == 0:
        return images, labels
    if rng is None:
        indices = np.arange(count)
    else:
        indices = rng.choice(len(labels), size=count, replace=False)
    images[indices] = add_backdoor_trigger(images[indices], trigger_size=trigger_size)
    labels[indices] = target_class
    return images, labels
