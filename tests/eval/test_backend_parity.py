"""The default ``auto`` backend (a BLAS-pinned fork pool) reproduces serial runs."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.eval.engine import ExecutorConfig, ExperimentEngine, record_to_dict
from repro.utils.rng import set_global_seed


@pytest.fixture(autouse=True)
def _default_environment(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_ENGINE_WORKERS", raising=False)


def _results(scenario: str, backend: str) -> dict:
    set_global_seed(20230913)
    engine = ExperimentEngine(executor=ExecutorConfig(backend=backend))
    return record_to_dict(engine.run(scenario, scale="tiny"))["results"]


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_table3_result_is_identical_to_serial():
    assert _sha256(_results("table3_cifar10", "auto")) == _sha256(
        _results("table3_cifar10", "serial")
    )


def test_fl_round_history_is_identical_to_serial():
    default = _results("fl_shielded_global", "auto")
    serial = _results("fl_shielded_global", "serial")
    assert _sha256(default["rounds"]) == _sha256(serial["rounds"])
    assert default["robust_accuracy"] == serial["robust_accuracy"]
