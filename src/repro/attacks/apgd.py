"""Auto Projected Gradient Descent (Croce & Hein, 2020).

A faithful-in-spirit implementation of APGD: momentum updates, a halving
step-size schedule driven by checkpoints, and restarts from the best point
found so far.  The full AutoAttack machinery (multiple losses, targeted
variants) is out of scope; the paper uses the cross-entropy variant.

The step loop runs under the attack driver; the step-size schedule is global
state over the whole batch, so APGD opts out of active-set shrinking (its
budget is fixed by construction).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import IterativeAttack, project_linf


def _batch_mean(values: np.ndarray) -> float:
    """Mean over the batch; 0 for an empty batch, which has no progress to track."""
    return values.mean() if len(values) else 0.0


class APGD(IterativeAttack):
    """Adaptive-step PGD with momentum and best-point restarts."""

    name = "apgd"
    supports_active_set = False

    def __init__(
        self,
        epsilon: float = 0.031,
        steps: int = 50,
        n_restarts: int = 1,
        rho: float = 0.75,
        momentum: float = 0.75,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
    ):
        self.epsilon = epsilon
        self.steps = steps
        self.n_restarts = max(n_restarts, 1)
        self.rho = rho
        self.momentum = momentum
        self.clip_min = clip_min
        self.clip_max = clip_max

    def _checkpoints(self) -> list[int]:
        """Checkpoint iterations at which the step size may be halved."""
        points = [0]
        spacing = max(int(0.22 * self.steps), 1)
        position = spacing
        while position < self.steps:
            points.append(position)
            spacing = max(spacing - 1, max(int(0.06 * self.steps), 1))
            position += spacing
        return points

    # ------------------------------------------------------------------ #
    # Driver protocol
    # ------------------------------------------------------------------ #
    def total_steps(self) -> int:
        return self.steps * self.n_restarts

    def init_state(self, views, inputs: np.ndarray, labels: np.ndarray) -> dict:
        return {
            "checkpoints": set(self._checkpoints()),
            "best_overall": np.array(inputs, copy=True),
            "best_overall_loss": np.full(len(labels), -np.inf),
        }

    def _merge_run(self, state: dict) -> None:
        """Fold the finished restart's best points into the overall best."""
        improved = state["best_loss"] > state["best_overall_loss"]
        state["best_overall"][improved] = state["best"][improved]
        state["best_overall_loss"][improved] = state["best_loss"][improved]

    def step(self, views, adversarials, originals, labels, state, iteration) -> np.ndarray:
        view = views[0]
        local = iteration % self.steps
        if local == 0:
            if iteration:
                self._merge_run(state)
            adversarials = np.array(originals, copy=True)
            state["best"] = np.array(originals, copy=True)
            state["best_loss"] = view.loss(adversarials, labels, loss="ce")
            state["previous"] = np.array(adversarials, copy=True)
            state["step_size"] = 2.0 * self.epsilon
            state["improvements"] = 0
            state["since_checkpoint"] = 0
            state["loss_at_checkpoint"] = _batch_mean(state["best_loss"])
        gradient = view.gradient(adversarials, labels, loss="ce")
        step = state["step_size"] * np.sign(gradient)
        momentum_term = self.momentum * (adversarials - state["previous"])
        state["previous"] = np.array(adversarials, copy=True)
        current = project_linf(
            adversarials + step + momentum_term,
            originals,
            self.epsilon,
            self.clip_min,
            self.clip_max,
        )
        losses = view.loss(current, labels, loss="ce")
        improved = losses > state["best_loss"]
        state["best"][improved] = current[improved]
        state["best_loss"][improved] = losses[improved]
        state["improvements"] += int(_batch_mean(improved) > 0.5)
        state["since_checkpoint"] += 1
        if local in state["checkpoints"] and local > 0:
            # Halve the step size when progress stalled since last checkpoint
            # (condition 1 of APGD: too few improving iterations).
            if (
                state["improvements"] < self.rho * state["since_checkpoint"]
                or _batch_mean(state["best_loss"]) <= state["loss_at_checkpoint"]
            ):
                state["step_size"] /= 2.0
                current = np.array(state["best"], copy=True)
            state["improvements"] = 0
            state["since_checkpoint"] = 0
            state["loss_at_checkpoint"] = _batch_mean(state["best_loss"])
        return current

    def finalize(self, views, adversarials, originals, labels, state) -> np.ndarray:
        self._merge_run(state)
        return state["best_overall"]
