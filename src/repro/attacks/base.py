"""Common attack machinery: results, projections and the attack base classes.

Since the attack-engine refactor the step loop of every iterative attack is
owned by :class:`repro.attacks.engine.AttackDriver`: attacks subclass
:class:`IterativeAttack` and implement per-step primitives
(:meth:`~IterativeAttack.step`, optional :meth:`~IterativeAttack.initialize`
/ :meth:`~IterativeAttack.init_state` / :meth:`~IterativeAttack.finalize`),
and the driver supplies projection-agnostic orchestration: gradient-query
counting, per-step callbacks and active-set shrinking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass
class AttackResult:
    """Outcome of running an attack over a batch of correctly classified samples."""

    attack_name: str
    originals: np.ndarray
    adversarials: np.ndarray
    labels: np.ndarray
    #: Per-sample success *from the attacker's point of view* (the view used to
    #: craft the examples misclassifies them).
    success: np.ndarray
    #: Number of gradient calls issued to the view while crafting (one batched
    #: backward pass counts as one call, matching the seed convention).
    gradient_queries: int
    #: Per-sample gradient-query counts: how many backward passes included
    #: each sample.
    queries_per_sample: np.ndarray

    @property
    def perturbations(self) -> np.ndarray:
        """Additive perturbation applied to each sample."""
        return self.adversarials - self.originals

    @property
    def success_rate(self) -> float:
        """Fraction of samples the attacker believes are misclassified."""
        return float(np.mean(self.success)) if len(self.success) else 0.0

    @property
    def total_sample_queries(self) -> int:
        """Total per-sample gradient computations (the active-set metric)."""
        return int(self.queries_per_sample.sum())

    def linf_norms(self) -> np.ndarray:
        """Per-sample l-infinity perturbation magnitude."""
        return np.abs(flatten_samples(self.perturbations)).max(axis=1)

    def l2_norms(self) -> np.ndarray:
        """Per-sample l2 perturbation magnitude."""
        return np.sqrt((flatten_samples(self.perturbations) ** 2).sum(axis=1))


def flatten_samples(batch: np.ndarray) -> np.ndarray:
    """``batch`` as ``(samples, features)``, sized explicitly so that an empty
    batch reshapes too (``reshape(0, -1)`` cannot infer the feature count)."""
    return batch.reshape(len(batch), math.prod(batch.shape[1:]))


def project_linf(
    candidates: np.ndarray, origin: np.ndarray, epsilon: float, clip_min: float = 0.0, clip_max: float = 1.0
) -> np.ndarray:
    """Project candidates into the l∞ ε-ball around ``origin`` and the pixel range.

    This is the P operator of the paper's Fig. 3: out-of-bound values are
    brought back to the surface of the allowable region.
    """
    clipped = np.clip(candidates, origin - epsilon, origin + epsilon)
    return np.clip(clipped, clip_min, clip_max)


class Attack:
    """Base class for evasion attacks.

    Attacks see the model only through the supplied gradient view, so the
    same attack code runs in the white-box and the PELTA-restricted setting.
    Concrete attacks subclass :class:`IterativeAttack`, whose step loop the
    driver owns.
    """

    name = "attack"

    def run(self, view, inputs: np.ndarray, labels: np.ndarray) -> AttackResult:
        """Craft adversarial examples and record the attacker-side success.

        Compatibility entry point: runs through the driver with active-set
        shrinking disabled, which reproduces the seed behaviour exactly.
        Build an :class:`~repro.attacks.engine.AttackDriver` directly for
        active-set shrinking, backend selection or per-step callbacks.
        """
        from repro.attacks.engine.driver import AttackDriver, DriverConfig

        driver = AttackDriver(DriverConfig(active_set=False, backend=None))
        return driver.run(self, view, inputs, labels)


class IterativeAttack(Attack):
    """An attack whose step loop is executed by the attack driver.

    The driver calls, in order: :meth:`initialize` (starting iterates),
    :meth:`init_state` (auxiliary state), then :meth:`step` once per
    iteration, and finally :meth:`finalize`.  ``views`` is always a tuple of
    gradient views — one entry for single-model attacks, two (ViT, CNN) for
    the ensemble SAGA attack.

    When :attr:`supports_active_set` is true, every array in the state dict
    must be per-sample along its first axis: the driver slices the batch
    (and the state) down to the samples that do not yet fool the view.
    Attacks with global state or fixed-budget semantics (APGD's step-size
    schedule, C&W's margin maximisation) opt out by leaving it false.
    """

    #: Number of driver iterations (see :meth:`total_steps`).
    steps: int = 1
    #: Whether the driver may shrink the batch to not-yet-successful samples.
    supports_active_set: ClassVar[bool] = False

    def total_steps(self) -> int:
        """Total driver iterations (restart-based attacks multiply here)."""
        return self.steps

    def initialize(self, views, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Starting iterates (default: a copy of the clean batch)."""
        return np.array(inputs, copy=True)

    def init_state(self, views, inputs: np.ndarray, labels: np.ndarray) -> dict:
        """Auxiliary state threaded through :meth:`step` (default: none)."""
        return {}

    def step(
        self,
        views,
        adversarials: np.ndarray,
        originals: np.ndarray,
        labels: np.ndarray,
        state: dict,
        iteration: int,
    ) -> np.ndarray:
        """Advance the (possibly shrunken) batch by one iteration."""
        raise NotImplementedError

    def finalize(
        self,
        views,
        adversarials: np.ndarray,
        originals: np.ndarray,
        labels: np.ndarray,
        state: dict,
    ) -> np.ndarray:
        """Select the final adversarials (default: the last iterates)."""
        return adversarials

    def is_successful(self, views, adversarials: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Attacker-side success of the current iterates (view misclassifies)."""
        return views[0].predict(adversarials) != labels
