"""Structured result persistence.

A scenario run produces a :class:`RunRecord` — the scenario identity, the
resolved configuration and typed parameters, the kind-specific result
payload and some run metadata — serialised to
``<results_dir>/runs/<scenario>.json``.  A live record's Table III / IV and
Fig. 4 results are the dataclasses below; :func:`record_to_dict` turns a
record into its JSON form, the only form ``repro.eval.tables.render_run``
formats, and ``scripts/update_experiments.py`` consumes the same JSON, so
the numbers in EXPERIMENTS.md do not depend on scraping pytest stdout.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any

import numpy as np

RESULTS_SCHEMA_VERSION = 1


@dataclasses.dataclass
class RunRecord:
    """Everything persisted about one scenario run."""

    scenario: str
    kind: str
    scale: str
    seed: int
    config: dict[str, Any]
    params: dict[str, Any]
    results: Any
    duration_seconds: float = 0.0
    cache_stats: dict[str, int] = dataclasses.field(default_factory=dict)
    executor: dict[str, Any] = dataclasses.field(default_factory=dict)
    created_at: str = ""
    schema_version: int = RESULTS_SCHEMA_VERSION


def _jsonify(value):
    """Recursively convert dataclasses / NumPy values to JSON-compatible types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def record_to_dict(record: RunRecord) -> dict[str, Any]:
    """Plain-dict form of a record (the JSON document)."""
    return _jsonify(record)


def save_run(record: RunRecord, results_dir: str | Path) -> Path:
    """Write a record to ``<results_dir>/runs/<scenario>.json`` and return the path."""
    runs_dir = Path(results_dir) / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / f"{record.scenario}.json"
    # No key sorting: dict insertion order is semantic (attack and shield-
    # setting rows render in declaration order when the record is reloaded).
    path.write_text(json.dumps(record_to_dict(record), indent=2) + "\n")
    return path


def load_run(path: str | Path) -> dict[str, Any]:
    """Load one persisted run record as a plain dict."""
    return json.loads(Path(path).read_text())


def load_runs(results_dir: str | Path) -> dict[str, dict[str, Any]]:
    """Load every run record under ``<results_dir>/runs``, keyed by scenario."""
    runs_dir = Path(results_dir) / "runs"
    records: dict[str, dict[str, Any]] = {}
    if not runs_dir.is_dir():
        return records
    for path in sorted(runs_dir.glob("*.json")):
        record = load_run(path)
        records[record.get("scenario", path.stem)] = record
    return records


# --------------------------------------------------------------------------- #
# Paper result blocks: Table III rows, Table IV block, Fig. 4 sample study
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class IndividualModelResult:
    """One row group of Table III: a defender against every attack."""

    model_name: str
    dataset: str
    clean_accuracy: float
    #: ``robust[attack]["unshielded" | "shielded"]`` robust accuracy.
    robust: dict[str, dict[str, float]] = dataclasses.field(default_factory=dict)
    eval_samples: int = 0


@dataclasses.dataclass
class EnsembleBenchmarkResult:
    """One dataset block of Table IV."""

    dataset: str
    vit_name: str
    cnn_name: str
    clean_accuracy: dict[str, float] = dataclasses.field(default_factory=dict)
    random_astuteness: dict[str, float] = dataclasses.field(default_factory=dict)
    #: ``robust[setting][row]`` with rows "vit", "cnn", "ensemble".
    robust: dict[str, dict[str, float]] = dataclasses.field(default_factory=dict)
    eval_samples: int = 0


@dataclasses.dataclass
class SagaSampleStudy:
    """Per-setting outcome of SAGA on a single correctly classified sample."""

    dataset: str
    label: int
    #: ``settings[setting]`` with perturbation norms and member predictions.
    settings: dict[str, dict[str, float | int | bool]] = dataclasses.field(default_factory=dict)


def timestamp() -> str:
    """UTC timestamp for run records."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
