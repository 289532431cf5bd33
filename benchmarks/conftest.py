"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper through the
experiment engine at *bench scale*: scaled-down models trained on synthetic
data, fewer evaluation samples and smaller attack budgets than the paper's
1000-sample / 5e3-query setup, so the whole suite completes on a laptop.
The REPRO_BENCH_SCALE environment variable selects the heavier ``full``
preset when more compute is available, and REPRO_ENGINE_WORKERS /
REPRO_ENGINE_BACKEND fan the independent attack cells out in parallel.

All benches share one session-scoped :class:`ExperimentEngine` whose
artifact cache persists under ``results/cache`` — so the Table IV and
Fig. 4 benches reuse the defenders the Table III bench already trained
(even across separate bench invocations), and every result is written as a
structured JSON record under ``results/runs`` for
``scripts/update_experiments.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

import pytest

from repro.autodiff import get_default_dtype
from repro.eval.engine import ExperimentConfig, ExperimentEngine, scaled_experiment_config
from repro.utils.rng import set_global_seed

BENCH_SCALE = "full" if os.environ.get("REPRO_BENCH_SCALE") == "full" else "bench"

#: Every run record / cached defender lands under the repository's results/.
RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

#: BENCH_<area>.json trajectory files live at the repository root so CI can
#: upload them as artifacts and scripts/compare_bench.py can diff revisions.
REPO_ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=10,
    ).stdout.strip()


def _git_sha() -> str:
    try:
        return _git("rev-parse", "HEAD")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _git_dirty() -> bool | None:
    """Whether the tree differs from HEAD, besides the ``BENCH_*.json`` files.

    The benches rewrite those files themselves, so they never count as a
    change.  ``None`` when git cannot tell (no git, or not a checkout).
    """
    try:
        return bool(_git("status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json"))
    except (OSError, subprocess.SubprocessError):
        return None


def write_bench_trajectory(area: str, metrics: dict) -> Path:
    """Write ``BENCH_<area>.json`` at the repo root: one revision's numbers.

    The file pins the context a benchmark ran under (git SHA, whether the
    tree had uncommitted changes, cpu count, dtype) next to its normalized
    metrics, so consecutive revisions' files form a performance trajectory
    that ``scripts/compare_bench.py`` gates CI on.  Each area has exactly one writing bench, so the file is replaced
    wholesale.
    """
    path = REPO_ROOT / f"BENCH_{area}.json"
    record = {
        "area": area,
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "cpu_count": os.cpu_count() or 1,
        "dtype": str(get_default_dtype()),
        "metrics": {key: float(value) for key, value in sorted(metrics.items())},
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def bench_experiment_config(**overrides) -> ExperimentConfig:
    """Baseline experiment configuration for the benches (scaled by env var)."""
    return scaled_experiment_config(BENCH_SCALE, **overrides)


@pytest.fixture(autouse=True)
def _bench_seed():
    """Deterministic benches: fixed global seed before every benchmark."""
    set_global_seed(20230913)
    yield


@pytest.fixture(scope="session")
def engine() -> ExperimentEngine:
    """The shared experiment engine (one artifact cache for the whole suite)."""
    return ExperimentEngine(results_dir=RESULTS_DIR)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
