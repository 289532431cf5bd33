"""Evaluation harness: metrics, experiment runners and table formatting."""

from repro.eval.astuteness import (
    AstutenessResult,
    attack_success_rate,
    evaluate_attack,
    robust_accuracy,
    select_correctly_classified,
)
from repro.eval.geometry import (
    AttackTrajectory,
    GeometryStudy,
    make_toy_problem,
    run_geometry_study,
    train_toy_classifier,
)
from repro.eval.harness import (
    SHIELD_SETTINGS,
    EnsembleBenchmarkResult,
    ExperimentConfig,
    IndividualModelResult,
    SagaSampleStudy,
    evaluate_individual_model,
    prepare_dataset,
    run_attack_in_batches,
    run_ensemble_benchmark,
    run_individual_benchmark,
    saga_sample_study,
    train_defender,
)
from repro.eval.tables import (
    format_federated,
    format_fig3,
    format_fig4,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    format_upsampling_ablation,
    render_run,
)


def __getattr__(name: str):
    # Lazy so the engine package (which imports harness) never participates
    # in an import cycle with this module.
    if name == "engine":
        import repro.eval.engine as engine

        return engine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "engine",
    "AstutenessResult",
    "AttackTrajectory",
    "EnsembleBenchmarkResult",
    "ExperimentConfig",
    "GeometryStudy",
    "IndividualModelResult",
    "SHIELD_SETTINGS",
    "SagaSampleStudy",
    "attack_success_rate",
    "evaluate_attack",
    "evaluate_individual_model",
    "format_federated",
    "format_fig3",
    "format_fig4",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "format_upsampling_ablation",
    "render_run",
    "make_toy_problem",
    "prepare_dataset",
    "robust_accuracy",
    "run_attack_in_batches",
    "run_ensemble_benchmark",
    "run_geometry_study",
    "run_individual_benchmark",
    "saga_sample_study",
    "select_correctly_classified",
    "train_defender",
    "train_toy_classifier",
]
