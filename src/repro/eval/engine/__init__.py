"""Unified experiment engine.

The engine is the one experiment API of the reproduction, built from four
composable pieces:

* a **scenario registry** (:mod:`~repro.eval.engine.registry`) where every
  table / figure / ablation is a declarative entry — a kind with typed
  parameters plus per-scale presets — over a shared
  :class:`~repro.eval.engine.registry.ExperimentConfig`;
* an **artifact cache** (:mod:`~repro.eval.engine.cache`) keying trained
  defenders and synthetic datasets by a stable config hash so no experiment
  ever retrains what another already trained;
* a **parallel executor** (:mod:`~repro.eval.engine.executor`) fanning
  independent (model × attack × shield-setting) cells over a BLAS-pinned
  fork pool with deterministic per-cell RNG seeds;
* **structured results** (:mod:`~repro.eval.engine.results`): the Table III
  rows, Table IV block and Fig. 4 study, persisted as JSON under
  ``results/runs/`` and rendered into the paper's tables by
  :mod:`repro.eval.tables`.

Run scenarios from Python (``ExperimentEngine().run("table3_cifar10")``) or
from the CLI (``python -m repro.run table3_cifar10``).
"""

from repro.eval.engine.cache import ArtifactCache, CacheStats, stable_hash
from repro.eval.engine.cells import (
    SHIELD_SETTINGS,
    model_spec,
    rebuild_model,
    run_attack_in_batches,
)
from repro.eval.engine.executor import BACKENDS, CellExecutor, ExecutorConfig
from repro.eval.engine.registry import (
    SCALES,
    SCENARIO_KINDS,
    ExperimentConfig,
    Scenario,
    ScenarioSpec,
    build_scenario,
    list_scenarios,
    register_scenario,
    scaled_experiment_config,
    scenario_catalog,
    unregister_scenario,
)
from repro.eval.engine.results import (
    EnsembleBenchmarkResult,
    IndividualModelResult,
    RunRecord,
    SagaSampleStudy,
    load_run,
    load_runs,
    record_to_dict,
    save_run,
)
from repro.eval.engine.runner import ExperimentEngine

__all__ = [
    "ArtifactCache",
    "BACKENDS",
    "CacheStats",
    "CellExecutor",
    "EnsembleBenchmarkResult",
    "ExecutorConfig",
    "ExperimentConfig",
    "ExperimentEngine",
    "IndividualModelResult",
    "RunRecord",
    "SCALES",
    "SCENARIO_KINDS",
    "SHIELD_SETTINGS",
    "SagaSampleStudy",
    "Scenario",
    "ScenarioSpec",
    "build_scenario",
    "list_scenarios",
    "load_run",
    "load_runs",
    "model_spec",
    "rebuild_model",
    "record_to_dict",
    "register_scenario",
    "run_attack_in_batches",
    "save_run",
    "scaled_experiment_config",
    "scenario_catalog",
    "stable_hash",
    "unregister_scenario",
]
