"""Input transforms: clipping and patch application."""

from __future__ import annotations

import numpy as np


def clip_to_unit(images: np.ndarray) -> np.ndarray:
    """Clip pixel values to the valid ``[0, 1]`` range."""
    return np.clip(images, 0.0, 1.0)


def apply_patch(
    images: np.ndarray, patch: np.ndarray, row: int, col: int
) -> np.ndarray:
    """Paste a (C, h, w) patch onto every image of a batch at ``(row, col)``.

    Models the physical "sticker" of the paper's patch-attack scenario: the
    scene itself is unchanged except for the patch region.
    """
    images = np.array(images, copy=True)
    _, patch_h, patch_w = patch.shape
    images[:, :, row : row + patch_h, col : col + patch_w] = patch
    return clip_to_unit(images)
