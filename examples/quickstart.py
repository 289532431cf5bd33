"""Quickstart: shield a classifier with PELTA and measure what the attacker loses.

This example walks through the core loop of the paper on a laptop-scale setup:

1. train a small Vision Transformer on a synthetic CIFAR-10-like dataset —
   through the experiment engine's artifact cache, so re-running the example
   (or any scenario with the same configuration) skips the training;
2. attack it with PGD in the full white-box setting (the default in FL);
3. wrap the same model in a PELTA :class:`~repro.core.ShieldedModel`, which
   seals the stem inside a simulated TrustZone enclave, and attack again —
   this time the attacker only gets the upsampled frontier adjoint;
4. compare robust accuracies and inspect the enclave's memory footprint.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.attacks import AttackDriver, DriverConfig, PGD, make_attacker_view
from repro.core import ShieldedModel, format_bytes, measure_shielded_model
from repro.eval import robust_accuracy, select_correctly_classified
from repro.eval.engine import ArtifactCache, ExperimentConfig
from repro.utils import set_global_seed


def main() -> None:
    set_global_seed(7)

    # 1. Data and defender, via the artifact cache ---------------------------
    # The cache keys artifacts by a stable hash of the configuration (plus
    # the global seed), persisting trained weights under results/cache — the
    # second run of this script trains nothing.
    config = ExperimentConfig(
        dataset="cifar10",
        models=("vit_b16",),
        train_per_class=40,
        test_per_class=12,
        train_epochs=4,
        train_lr=3e-3,
    )
    cache = ArtifactCache(directory="results/cache")
    dataset = cache.get_dataset(config)
    model = cache.get_defender("vit_b16", config)
    clean_accuracy = model.accuracy(dataset.test_images, dataset.test_labels)
    trained = "trained now" if cache.stats.trainings else "loaded from cache"
    print(f"clean accuracy: {clean_accuracy:.1%} (defender {trained})")

    # Evaluate robustness over correctly classified samples, as in the paper.
    images, labels = select_correctly_classified(
        model.predict, dataset.test_images, dataset.test_labels, max_samples=32
    )
    attack = PGD(epsilon=0.031, step_size=0.0031, steps=10)
    # The attack driver owns the step loop: captured-graph gradient replay
    # and per-sample query accounting come for free (active_set=False keeps
    # the paper's fixed-budget trajectories).
    driver = AttackDriver(DriverConfig(backend="captured", active_set=False))

    # 2. White-box attack on the unshielded model ---------------------------
    white_box_view = make_attacker_view(model)
    clear_adversarials = driver.run(attack, white_box_view, images, labels).adversarials
    clear_robust = robust_accuracy(model.predict, clear_adversarials, labels)
    print(f"PGD robust accuracy without PELTA: {clear_robust:.1%}")

    # 3. The same attack against the PELTA-shielded model -------------------
    shielded = ShieldedModel(model)  # seals the ViT stem inside a TrustZone enclave
    restricted_view = make_attacker_view(shielded)
    shielded_adversarials = driver.run(attack, restricted_view, images, labels).adversarials
    shielded_robust = robust_accuracy(model.predict, shielded_adversarials, labels)
    print(f"PGD robust accuracy with PELTA:    {shielded_robust:.1%}")

    # 4. What the shield costs ----------------------------------------------
    estimate = measure_shielded_model(shielded, images[:1], labels[:1])
    print(
        f"shielded parameters: {estimate.shielded_parameters:,} "
        f"({estimate.shielded_portion:.2%} of the model), "
        f"worst-case enclave memory: {format_bytes(estimate.worst_case_bytes)} "
        f"(TrustZone budget: {format_bytes(shielded.enclave.memory_limit_bytes)})"
    )
    switches = shielded.enclave.boundary.stats.switches
    print(f"secure-world switches recorded so far: {switches}")


if __name__ == "__main__":
    main()
