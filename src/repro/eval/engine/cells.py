"""Self-contained experiment cells, the unit of parallel execution.

A *cell* is one independent (model × attack × shield-setting) evaluation of a
scenario.  Cells are plain module-level functions over picklable payload
dictionaries (primitives plus NumPy arrays) so the executor can fan them out
to worker processes; every model is rebuilt inside the
cell from its ``state_dict`` and all randomness is drawn from a private
:class:`~repro.utils.rng.RngRegistry` seeded with the payload's per-task
seed.  That makes a cell's result a pure function of its payload — identical
across the serial and process backends, and independent of execution
order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.attacks.bpda import make_attacker_view
from repro.attacks.configs import AttackSuiteConfig, build_attack_suite, build_saga
from repro.attacks.engine.driver import AttackDriver, DriverConfig
from repro.attacks.random_noise import RandomUniform
from repro.attacks.pgd import PGD
from repro.core.shielded_model import ShieldedModel
from repro.eval.astuteness import robust_accuracy
from repro.models.base import ImageClassifier
from repro.models.registry import build_model
from repro.utils.rng import RngRegistry


def model_spec(name: str, model: ImageClassifier) -> dict:
    """Picklable description of a trained model (architecture + weights)."""
    in_channels, image_size, _ = model.input_shape
    return {
        "name": name,
        "num_classes": model.num_classes,
        "image_size": image_size,
        "in_channels": in_channels,
        "state": model.state_dict(),
    }


def rebuild_model(spec: dict) -> ImageClassifier:
    """Reconstruct a trained model from a :func:`model_spec` payload."""
    model = build_model(
        spec["name"],
        num_classes=spec["num_classes"],
        image_size=spec["image_size"],
        in_channels=spec["in_channels"],
    )
    model.load_state_dict(spec["state"])
    model.eval()
    return model


def _rng_factory(seed: int) -> Callable[[str], np.random.Generator]:
    """Per-cell deterministic RNG streams, independent of the global registry."""
    registry = RngRegistry(seed)
    return registry.spawn


def _payload_driver(payload: dict, callbacks=()) -> AttackDriver:
    """Attack driver configured from a cell payload (backend + active set)."""
    return AttackDriver(
        DriverConfig(
            backend=payload.get("backend", "eager"),
            active_set=bool(payload.get("active_set", False)),
        ),
        callbacks=callbacks,
    )


def run_attack_in_batches(
    attack, view, images: np.ndarray, labels: np.ndarray, batch_size: int, driver=None
) -> np.ndarray:
    """Run an attack over a dataset in mini-batches, returning the adversarials.

    ``view`` may be a single gradient view or a tuple of member views (the
    ensemble SAGA case); ``driver`` defaults to the compatibility
    configuration (eager backend, no active-set shrinking).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if driver is None:
        driver = AttackDriver(DriverConfig(active_set=False, backend=None))
    pieces = []
    for start in range(0, len(labels), batch_size):
        stop = start + batch_size
        result = driver.run(attack, view, images[start:stop], labels[start:stop])
        pieces.append(result.adversarials)
    if not pieces:
        return images[:0]
    return np.concatenate(pieces, axis=0)


# --------------------------------------------------------------------------- #
# Table III cell: one defender against one attack, clear + shielded
# --------------------------------------------------------------------------- #
def run_individual_cell(payload: dict) -> dict:
    """Evaluate one (defender, attack) pair in the clear and shielded settings."""
    rng = _rng_factory(payload["seed"])
    model = rebuild_model(payload["model"])
    suite = build_attack_suite(AttackSuiteConfig(**payload["suite_config"]), rng_factory=rng)
    attack = suite[payload["attack"]]
    driver = _payload_driver(payload)
    clear_view = make_attacker_view(model)
    shielded_view = make_attacker_view(
        ShieldedModel(model), strategy=payload["strategy"], rng=rng("attacks.bpda")
    )
    images, labels = payload["images"], payload["labels"]
    batch_size = payload["batch_size"]
    clear_adv = run_attack_in_batches(attack, clear_view, images, labels, batch_size, driver)
    shielded_adv = run_attack_in_batches(attack, shielded_view, images, labels, batch_size, driver)
    return {
        "model_name": payload["model"]["name"],
        "attack": payload["attack"],
        "unshielded": robust_accuracy(model.predict, clear_adv, labels),
        "shielded": robust_accuracy(model.predict, shielded_adv, labels),
    }


# --------------------------------------------------------------------------- #
# Table IV cells: SAGA per shield setting, plus the random-noise baseline
# --------------------------------------------------------------------------- #
def _member_views(payload: dict, vit_model, cnn_model, rng):
    """Attacker views of the two ensemble members for one shield setting."""
    setting = payload["setting"]
    strategy = payload["strategy"]
    vit_target = ShieldedModel(vit_model) if setting in ("vit_only", "both") else vit_model
    cnn_target = ShieldedModel(cnn_model) if setting in ("cnn_only", "both") else cnn_model
    return (
        make_attacker_view(vit_target, strategy=strategy, rng=rng("attacks.bpda.vit")),
        make_attacker_view(cnn_target, strategy=strategy, rng=rng("attacks.bpda.cnn")),
    )


def _ensemble_rows(vit_model, cnn_model, adversarials, labels) -> dict[str, float]:
    """Per-member robust accuracy plus the *expected* ensemble accuracy.

    Under uniform random selection each sample is answered by either member
    with probability 1/2, so the ensemble's expected accuracy is the mean of
    the members' per-sample correctness — deterministic, unlike scoring a
    single sampled selection.
    """
    vit_robust = robust_accuracy(vit_model.predict, adversarials, labels)
    cnn_robust = robust_accuracy(cnn_model.predict, adversarials, labels)
    return {
        "vit": vit_robust,
        "cnn": cnn_robust,
        "ensemble": (vit_robust + cnn_robust) / 2.0,
    }


def run_saga_cell(payload: dict) -> dict:
    """SAGA against the two-member ensemble under one shield setting."""
    rng = _rng_factory(payload["seed"])
    vit_model = rebuild_model(payload["vit"])
    cnn_model = rebuild_model(payload["cnn"])
    saga = build_saga(
        AttackSuiteConfig(**payload["suite_config"]),
        steps=payload["saga_steps"],
        alpha_cnn=payload["saga_alpha_cnn"],
    )
    vit_view, cnn_view = _member_views(payload, vit_model, cnn_model, rng)
    images, labels = payload["images"], payload["labels"]
    batch_size = payload["batch_size"]
    driver = _payload_driver(payload)
    adversarials = run_attack_in_batches(
        saga, (vit_view, cnn_view), images, labels, batch_size, driver
    )
    rows = _ensemble_rows(vit_model, cnn_model, adversarials, labels)
    return {"setting": payload["setting"], "robust": rows}


def run_noise_cell(payload: dict) -> dict:
    """Random-uniform astuteness baseline of Table IV."""
    rng = _rng_factory(payload["seed"])
    vit_model = rebuild_model(payload["vit"])
    cnn_model = rebuild_model(payload["cnn"])
    epsilon = build_saga(AttackSuiteConfig(**payload["suite_config"])).epsilon
    attack = RandomUniform(epsilon=epsilon, rng=rng("attacks.random"))
    noisy = _payload_driver(payload).run(
        attack, make_attacker_view(vit_model), payload["images"], payload["labels"]
    ).adversarials
    rows = _ensemble_rows(vit_model, cnn_model, noisy, payload["labels"])
    return {"setting": "random", "robust": rows}


# --------------------------------------------------------------------------- #
# Fig. 4 cell: SAGA on a single sample under one shield setting
# --------------------------------------------------------------------------- #
def run_saga_sample_cell(payload: dict) -> dict:
    """Per-sample SAGA outcome (perturbation norms + member predictions)."""
    rng = _rng_factory(payload["seed"])
    vit_model = rebuild_model(payload["vit"])
    cnn_model = rebuild_model(payload["cnn"])
    saga = build_saga(
        AttackSuiteConfig(**payload["suite_config"]),
        steps=payload["saga_steps"],
        alpha_cnn=payload["saga_alpha_cnn"],
    )
    vit_view, cnn_view = _member_views(payload, vit_model, cnn_model, rng)
    image, label = payload["images"], payload["labels"]
    adversarial = _payload_driver(payload).run(
        saga, (vit_view, cnn_view), image, label
    ).adversarials
    perturbation = adversarial - image
    vit_prediction = int(vit_model.predict(adversarial)[0])
    cnn_prediction = int(cnn_model.predict(adversarial)[0])
    true_label = int(label[0])
    return {
        "setting": payload["setting"],
        "outcome": {
            "linf": float(np.abs(perturbation).max()),
            "l2": float(np.sqrt((perturbation**2).sum())),
            "vit_prediction": vit_prediction,
            "cnn_prediction": cnn_prediction,
            "attack_success": bool(vit_prediction != true_label or cnn_prediction != true_label),
        },
    }


# --------------------------------------------------------------------------- #
# Attack-engine cells: budget curve and robustness curve
# --------------------------------------------------------------------------- #
def _cell_view(payload: dict, model, rng):
    """Clear or shielded attacker view, per the payload's ``setting``."""
    if payload.get("setting") == "shielded":
        return make_attacker_view(
            ShieldedModel(model), strategy=payload["strategy"], rng=rng("attacks.bpda")
        )
    return make_attacker_view(model)


def run_budget_curve_cell(payload: dict) -> dict:
    """Success rate vs gradient-query budget for one driver mode.

    ``payload["mode"]`` selects active-set shrinking ("active") or the full
    fixed-budget batch ("fixed"); the driver's per-step callback records the
    cumulative query/success curve the scenario plots.
    """
    rng = _rng_factory(payload["seed"])
    model = rebuild_model(payload["model"])
    suite = build_attack_suite(AttackSuiteConfig(**payload["suite_config"]), rng_factory=rng)
    attack = suite[payload["attack"]]
    view = _cell_view(payload, model, rng)
    curve: list[dict] = []

    def on_step(info) -> None:
        curve.append(
            {
                "iteration": info.iteration,
                "gradient_calls": info.gradient_calls,
                "sample_queries": info.sample_queries,
                "active": int(info.active_indices.size),
                "success_rate": info.fooled / max(info.num_samples, 1),
            }
        )

    driver = AttackDriver(
        DriverConfig(
            backend=payload.get("backend", "eager"),
            active_set=payload["mode"] == "active",
        ),
        callbacks=[on_step],
    )
    result = driver.run(attack, view, payload["images"], payload["labels"])
    curve.append(
        {
            "iteration": len(curve),
            "gradient_calls": result.gradient_queries,
            "sample_queries": result.total_sample_queries,
            "active": 0,
            "success_rate": result.success_rate,
        }
    )
    return {
        "mode": payload["mode"],
        "setting": payload.get("setting", "clear"),
        "attack": payload["attack"],
        "curve": curve,
        "gradient_calls": result.gradient_queries,
        "sample_queries": result.total_sample_queries,
        "success_rate": result.success_rate,
    }


#: Robustness-curve attack builders: ε-parameterised instances of the
#: iterative suite (C&W is not ε-bounded, so it is not part of the sweep).
CURVE_ATTACKS = ("fgsm", "pgd", "mim", "apgd")


def _build_curve_attack(name: str, epsilon: float, steps: int, rng):
    from repro.attacks.apgd import APGD
    from repro.attacks.fgsm import FGSM
    from repro.attacks.mim import MIM

    if name == "fgsm":
        return FGSM(epsilon=epsilon)
    if name == "pgd":
        return PGD(epsilon=epsilon, step_size=epsilon / 8, steps=steps, rng=rng("attacks.pgd"))
    if name == "mim":
        return MIM(epsilon=epsilon, step_size=epsilon / 8, steps=steps)
    if name == "apgd":
        return APGD(epsilon=epsilon, steps=steps)
    raise KeyError(f"unknown robustness-curve attack {name!r}; expected {CURVE_ATTACKS}")


def run_robustness_curve_cell(payload: dict) -> dict:
    """Attack success vs ε at one budget point, clear and shielded."""
    rng = _rng_factory(payload["seed"])
    model = rebuild_model(payload["model"])
    epsilon = float(payload["epsilon"])
    attack = _build_curve_attack(payload["attack"], epsilon, payload["steps"], rng)
    driver = _payload_driver(payload)
    images, labels = payload["images"], payload["labels"]
    clear_view = make_attacker_view(model)
    shielded_view = make_attacker_view(
        ShieldedModel(model), strategy=payload["strategy"], rng=rng("attacks.bpda")
    )
    clear = driver.run(attack, clear_view, images, labels)
    shielded = driver.run(attack, shielded_view, images, labels)
    return {
        "epsilon": epsilon,
        "attack": payload["attack"],
        "success_unshielded": clear.success_rate,
        "success_shielded": float(np.mean(model.predict(shielded.adversarials) != labels)),
        "robust_unshielded": robust_accuracy(model.predict, clear.adversarials, labels),
        "robust_shielded": robust_accuracy(model.predict, shielded.adversarials, labels),
        "sample_queries": clear.total_sample_queries + shielded.total_sample_queries,
    }


def run_upsampling_cell(payload: dict) -> dict:
    """One attacker substitute of the §V-C upsampling ablation.

    ``payload["strategy"]`` is an upsampler name, or the special values
    ``"white_box"`` (unshielded reference) / ``"random_noise"`` (floor).
    """
    rng = _rng_factory(payload["seed"])
    model = rebuild_model(payload["model"])
    images, labels = payload["images"], payload["labels"]
    epsilon = payload["epsilon"]
    strategy = payload["strategy"]
    if strategy == "random_noise":
        attack = RandomUniform(epsilon=epsilon, rng=rng("attacks.random"))
        view = make_attacker_view(model)
    else:
        attack = PGD(
            epsilon=epsilon, step_size=epsilon / 8, steps=payload["steps"], rng=rng("attacks.pgd")
        )
        if strategy == "white_box":
            view = make_attacker_view(model)
        else:
            view = make_attacker_view(
                ShieldedModel(model), strategy=strategy, rng=rng("attacks.bpda")
            )
    adversarials = _payload_driver(payload).run(attack, view, images, labels).adversarials
    return {
        "strategy": strategy,
        "robust_accuracy": robust_accuracy(model.predict, adversarials, labels),
    }
