"""Carlini & Wagner style regularisation-based attack.

The attack iteratively optimises a sum of two competing terms: a margin term
that measures how wrongly the candidate is classified (with a confidence
offset) and an l2 regulariser on the added perturbation.  The original C&W
attack performs this minimisation through a change of variables and binary
search over the trade-off constant; this implementation keeps the essential
structure — gradient steps on ``margin - λ·||δ||²`` with clipping to the
pixel range — which is what the paper's Table II parameters describe
(confidence, step size, number of steps).

C&W maximises the margin *beyond* the decision boundary (the confidence
offset), so a sample that merely fools the view is not finished; the attack
therefore opts out of active-set shrinking and spends its fixed budget.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import IterativeAttack, flatten_samples


class CarliniWagner(IterativeAttack):
    """Iterative margin-maximisation attack with an l2 penalty."""

    name = "cw"
    supports_active_set = False

    def __init__(
        self,
        confidence: float = 50.0,
        step_size: float = 0.00155,
        steps: int = 30,
        l2_penalty: float = 0.05,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
    ):
        self.confidence = confidence
        self.step_size = step_size
        self.steps = steps
        self.l2_penalty = l2_penalty
        self.clip_min = clip_min
        self.clip_max = clip_max

    def init_state(self, views, inputs: np.ndarray, labels: np.ndarray) -> dict:
        return {
            "best": np.array(inputs, copy=True),
            "best_margin": views[0].loss(
                inputs, labels, loss="margin", confidence=self.confidence
            ),
        }

    def step(self, views, adversarials, originals, labels, state, iteration) -> np.ndarray:
        margin_gradient = views[0].gradient(
            adversarials, labels, loss="margin", confidence=self.confidence
        )
        penalty_gradient = 2.0 * (adversarials - originals)
        update = margin_gradient - self.l2_penalty * penalty_gradient
        # Normalised (per-sample) gradient ascent step on the objective.
        flat = np.abs(flatten_samples(update)).max(axis=1)
        flat = np.maximum(flat, 1e-12).reshape(-1, *([1] * (update.ndim - 1)))
        adversarials = adversarials + self.step_size * update / flat
        adversarials = np.clip(adversarials, self.clip_min, self.clip_max)
        margins = views[0].loss(adversarials, labels, loss="margin", confidence=self.confidence)
        improved = margins > state["best_margin"]
        state["best"][improved] = adversarials[improved]
        state["best_margin"][improved] = margins[improved]
        return adversarials

    def finalize(self, views, adversarials, originals, labels, state) -> np.ndarray:
        return state["best"]
