"""Attack parameters of Table II and attack-suite builders.

The paper uses one parameter set for CIFAR-10 / CIFAR-100 and a second one
(double ε) for ImageNet.  ``table2_parameters`` returns those published
values verbatim; ``build_attack_suite`` instantiates the five individual-model
attacks of Table III (plus the random baseline) from them, optionally scaling
the iteration counts down to bench scale (the paper's APGD budget of 5e3
queries per sample is far beyond what a NumPy substrate should spend).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.attacks.apgd import APGD
from repro.attacks.base import Attack
from repro.attacks.cw import CarliniWagner
from repro.attacks.fgsm import FGSM
from repro.attacks.mim import MIM
from repro.attacks.pgd import PGD
from repro.attacks.random_noise import RandomUniform
from repro.attacks.saga import SelfAttentionGradientAttack


@dataclass(frozen=True)
class AttackParameters:
    """The Table II parameter block for one dataset."""

    dataset: str
    epsilon: float
    step_size: float
    pgd_steps: int = 20
    mim_decay: float = 1.0
    apgd_restarts: int = 1
    apgd_rho: float = 0.75
    apgd_queries: int = 5000
    cw_confidence: float = 50.0
    cw_steps: int = 30
    saga_alpha_cnn: float = 0.001
    saga_step_size: float = 0.0031


#: Published Table II parameters, keyed by dataset name.
TABLE2_PARAMETERS: dict[str, AttackParameters] = {
    "cifar10": AttackParameters(
        dataset="cifar10",
        epsilon=0.031,
        step_size=0.00155,
        saga_alpha_cnn=2.0e-4,
        saga_step_size=3.1e-3,
    ),
    "cifar100": AttackParameters(
        dataset="cifar100",
        epsilon=0.031,
        step_size=0.00155,
        saga_alpha_cnn=2.0e-4,
        saga_step_size=3.1e-3,
    ),
    "imagenet": AttackParameters(
        dataset="imagenet",
        epsilon=0.062,
        step_size=0.0031,
        saga_alpha_cnn=0.001,
        saga_step_size=0.0031,
    ),
}


def table2_parameters(dataset: str) -> AttackParameters:
    """Return the published Table II parameters for ``dataset``."""
    if dataset not in TABLE2_PARAMETERS:
        raise KeyError(f"unknown dataset {dataset!r}; available: {sorted(TABLE2_PARAMETERS)}")
    return TABLE2_PARAMETERS[dataset]


@dataclass
class AttackSuiteConfig:
    """How to instantiate the Table III attack suite for an experiment."""

    dataset: str = "cifar10"
    #: Multiplier applied to ε and the step size.  The synthetic datasets have
    #: somewhat larger class margins than CIFAR, so an experiment may use a
    #: scale > 1 to keep the unshielded attacks in the saturated regime the
    #: paper reports (the substitution is recorded in EXPERIMENTS.md).
    epsilon_scale: float = 1.0
    #: Cap on iterative attack steps (bench-scale budget).
    max_steps: int = 20
    #: APGD step budget (the paper's 5e3 queries are reduced at bench scale).
    apgd_steps: int = 30
    include_random_baseline: bool = False


#: Maps a stream name to a generator; the experiment engine passes a factory
#: derived from a per-cell seed so concurrently executing cells never share
#: (and therefore never race on) the global RNG streams.
RngFactory = Callable[[str], "np.random.Generator"]


def build_attack_suite(
    config: AttackSuiteConfig, rng_factory: RngFactory | None = None
) -> dict[str, Attack]:
    """Instantiate the individual-model attacks of Table III."""
    params = table2_parameters(config.dataset)
    epsilon = params.epsilon * config.epsilon_scale
    step_size = params.step_size * config.epsilon_scale
    pgd_steps = min(params.pgd_steps, config.max_steps)
    if pgd_steps < params.pgd_steps:
        # The paper's iterative attacks cover the whole epsilon ball
        # (steps x step_size ~= epsilon); when the bench caps the iteration
        # count, the step size is enlarged to preserve that total budget.
        step_size = max(step_size, epsilon / pgd_steps)
    cw_steps = min(params.cw_steps, config.max_steps)
    pgd_rng = rng_factory("attacks.pgd") if rng_factory is not None else None
    suite: dict[str, Attack] = {
        "fgsm": FGSM(epsilon=epsilon),
        "pgd": PGD(epsilon=epsilon, step_size=step_size, steps=pgd_steps, rng=pgd_rng),
        "mim": MIM(epsilon=epsilon, step_size=step_size, steps=pgd_steps, decay=params.mim_decay),
        "cw": CarliniWagner(
            confidence=params.cw_confidence,
            step_size=step_size,
            steps=cw_steps,
        ),
        "apgd": APGD(
            epsilon=epsilon,
            steps=config.apgd_steps,
            n_restarts=params.apgd_restarts,
            rho=params.apgd_rho,
        ),
    }
    if config.include_random_baseline:
        noise_rng = rng_factory("attacks.random") if rng_factory is not None else None
        suite["random"] = RandomUniform(epsilon=epsilon, rng=noise_rng)
    return suite


def build_saga(
    config: AttackSuiteConfig,
    steps: int | None = None,
    alpha_cnn: float | None = None,
) -> SelfAttentionGradientAttack:
    """Instantiate the ensemble SAGA attack of Table IV.

    ``alpha_cnn`` overrides the published weighting factor; the bench scenarios
    uses a balanced value on the synthetic substrate (where gradients of the
    two member families have comparable magnitude) so that SAGA meaningfully
    targets both members, as in the paper's evaluation.
    """
    params = table2_parameters(config.dataset)
    epsilon = params.epsilon * config.epsilon_scale
    resolved_steps = steps if steps is not None else config.max_steps
    step_size = params.saga_step_size * config.epsilon_scale
    if resolved_steps * step_size < epsilon:
        # Preserve the total epsilon-ball coverage when the bench reduces the
        # iteration count (same convention as build_attack_suite).
        step_size = epsilon / resolved_steps
    return SelfAttentionGradientAttack(
        epsilon=epsilon,
        step_size=step_size,
        steps=resolved_steps,
        alpha_cnn=alpha_cnn if alpha_cnn is not None else params.saga_alpha_cnn,
    )
