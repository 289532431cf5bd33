"""Momentum Iterative Method (Dong et al., 2018)."""

from __future__ import annotations

import numpy as np

from repro.attacks.base import IterativeAttack, flatten_samples, project_linf


class MIM(IterativeAttack):
    """Iterative sign attack with an accumulated velocity vector.

    At each step the normalised gradient is added to a decayed velocity
    ``g_i = μ · g_{i-1} + ∇_x L / ||∇_x L||_1`` and the FGSM-like update
    ``x_i = x_{i-1} + ε_step · sign(g_i)`` is applied.  The velocity is
    per-sample state, so MIM participates in active-set shrinking.
    """

    name = "mim"
    supports_active_set = True

    def __init__(
        self,
        epsilon: float = 0.031,
        step_size: float = 0.00155,
        steps: int = 20,
        decay: float = 1.0,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
    ):
        self.epsilon = epsilon
        self.step_size = step_size
        self.steps = steps
        self.decay = decay
        self.clip_min = clip_min
        self.clip_max = clip_max

    def init_state(self, views, inputs: np.ndarray, labels: np.ndarray) -> dict:
        return {"velocity": np.zeros_like(inputs)}

    def step(self, views, adversarials, originals, labels, state, iteration) -> np.ndarray:
        gradient = views[0].gradient(adversarials, labels, loss="ce")
        flat_norm = np.abs(flatten_samples(gradient)).sum(axis=1)
        flat_norm = np.maximum(flat_norm, 1e-12).reshape(-1, *([1] * (gradient.ndim - 1)))
        state["velocity"] = self.decay * state["velocity"] + gradient / flat_norm
        adversarials = adversarials + self.step_size * np.sign(state["velocity"])
        return project_linf(adversarials, originals, self.epsilon, self.clip_min, self.clip_max)
