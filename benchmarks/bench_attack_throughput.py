"""Attack gradient-query throughput: eager vs captured autodiff backends.

Runs the same PGD attack against a bench-scale defender once per execution
backend and reports gradient queries per second.  Because a captured-graph
replay executes exactly the NumPy expressions the eager pass recorded, the
two backends must produce **bit-identical adversarials and query counts** —
asserted here for every pair of backends run in the same session — so the
numbers measure pure graph-execution overhead.

A third, eager run with active-set shrinking enabled measures how many
per-sample gradient queries the driver saves by dropping already-successful
samples out of the batch.  The acceptance bar (either ≥1.5× captured
throughput or ≥30% fewer queries via shrinking) is asserted, and all numbers
are persisted as JSON under ``results/runs`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np
import pytest

from benchmarks.conftest import (
    RESULTS_DIR,
    bench_experiment_config,
    run_once,
    write_bench_trajectory,
)
from repro.attacks import AttackDriver, DriverConfig, PGD, make_attacker_view
from repro.eval.astuteness import select_correctly_classified

#: Results per backend, for the cross-backend parity assertion and the JSON.
_RESULTS: dict[str, dict] = {}

#: Attack budget of the throughput bench (enough steps to amortise the
#: captured backend's one-time record pass, as iterative attacks do).
_STEPS = 12
_EPSILON = 0.031

_SPEEDUP_TARGET = 1.5
_REDUCTION_TARGET = 0.30


def _bench_setup(engine):
    config = bench_experiment_config(models=("simple_cnn",))
    model = engine.cache.get_defender("simple_cnn", config)
    dataset = engine.cache.get_dataset(config)
    images, labels = select_correctly_classified(
        model.predict, dataset.test_images, dataset.test_labels, config.eval_samples
    )
    attack = PGD(epsilon=_EPSILON, step_size=_EPSILON / 8, steps=_STEPS)
    return model, attack, images, labels


def _timed_run(attack, view, images, labels, backend: str, active_set: bool):
    driver = AttackDriver(DriverConfig(backend=backend, active_set=active_set))
    # Warm-up outside the timed region (defender pages, BLAS init).
    driver.run(attack, view, images[:2], labels[:2])
    start = time.perf_counter()
    result = driver.run(attack, view, images, labels)
    return result, time.perf_counter() - start


@pytest.mark.parametrize("backend", ["eager", "captured"])
def test_attack_gradient_throughput(benchmark, engine, backend):
    """PGD throughput on one backend; parity against every other backend."""
    model, attack, images, labels = _bench_setup(engine)
    view = make_attacker_view(model)
    result, seconds = run_once(
        benchmark, _timed_run, attack, view, images, labels, backend, False
    )
    queries_per_second = result.total_sample_queries / max(seconds, 1e-9)
    digest = hashlib.sha256(np.ascontiguousarray(result.adversarials).tobytes()).hexdigest()
    print()
    print(
        f"[{backend}] {result.total_sample_queries} sample queries "
        f"({result.gradient_queries} calls) in {seconds:.2f}s = "
        f"{queries_per_second:.1f} queries/s, success={result.success_rate:.2f}, "
        f"sha256={digest[:12]}"
    )
    for other, entry in _RESULTS.items():
        assert digest == entry["adversarials_sha256"], (
            f"{backend} adversarial hash diverges from {other}"
        )
        assert np.array_equal(result.adversarials, entry["adversarials"]), (
            f"{backend} adversarials diverge from {other}"
        )
        assert result.gradient_queries == entry["gradient_calls"]
        assert np.array_equal(result.queries_per_sample, entry["queries_per_sample"])
    _RESULTS[backend] = {
        "adversarials": result.adversarials,
        "adversarials_sha256": digest,
        "queries_per_sample": result.queries_per_sample,
        "gradient_calls": result.gradient_queries,
        "sample_queries": result.total_sample_queries,
        "seconds": seconds,
        "queries_per_second": queries_per_second,
        "success_rate": result.success_rate,
    }


def test_active_set_query_reduction_and_report(benchmark, engine):
    """Active-set savings + the ≥1.5× / ≥30% acceptance bar, persisted as JSON."""
    model, attack, images, labels = _bench_setup(engine)
    view = make_attacker_view(model)
    if "eager" not in _RESULTS:
        result, seconds = _timed_run(attack, view, images, labels, "eager", False)
        _RESULTS["eager"] = {
            "adversarials": result.adversarials,
            "adversarials_sha256": hashlib.sha256(
                np.ascontiguousarray(result.adversarials).tobytes()
            ).hexdigest(),
            "queries_per_sample": result.queries_per_sample,
            "gradient_calls": result.gradient_queries,
            "sample_queries": result.total_sample_queries,
            "seconds": seconds,
            "queries_per_second": result.total_sample_queries / max(seconds, 1e-9),
            "success_rate": result.success_rate,
        }
    active, _ = run_once(benchmark, _timed_run, attack, view, images, labels, "eager", True)
    fixed = _RESULTS["eager"]
    reduction = 1.0 - active.total_sample_queries / max(fixed["sample_queries"], 1)
    # Shrinking freezes successful samples, so the attack stays as strong.
    assert active.success_rate >= fixed["success_rate"] - 1e-9
    captured = _RESULTS.get("captured")
    speedup = (
        captured["queries_per_second"] / max(fixed["queries_per_second"], 1e-9)
        if captured
        else None
    )
    print()
    print(
        f"[active-set] {active.total_sample_queries} vs {fixed['sample_queries']} "
        f"sample queries = {reduction * 100:.1f}% fewer"
        + (f"; captured speedup {speedup:.2f}x" if speedup else "")
    )
    assert (speedup is not None and speedup >= _SPEEDUP_TARGET) or (
        reduction >= _REDUCTION_TARGET
    ), f"neither captured speedup ({speedup}) nor query reduction ({reduction:.2f}) met the bar"
    payload = {
        "scenario": "bench_attack_throughput",
        "attack": "pgd",
        "steps": _STEPS,
        "epsilon": _EPSILON,
        "eval_samples": int(len(labels)),
        "backends": {
            name: {key: value for key, value in entry.items() if key != "adversarials"}
            for name, entry in _RESULTS.items()
        },
        "captured_speedup": speedup,
        "active_set": {
            "sample_queries": active.total_sample_queries,
            "fixed_sample_queries": fixed["sample_queries"],
            "query_reduction": reduction,
            "success_rate": active.success_rate,
        },
        "parity": "bit-identical adversarials and query counts across backends",
    }
    runs_dir = RESULTS_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / "bench_attack_throughput.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(_jsonify(payload), handle, indent=2, sort_keys=True)
    print(f"wrote {path}")
    trajectory = {
        "active_set_query_reduction": reduction,
        "eager_queries_per_second": fixed["queries_per_second"],
        "eager_seconds": fixed["seconds"],
    }
    if captured is not None:
        trajectory["captured_queries_per_second"] = captured["queries_per_second"]
        trajectory["captured_seconds"] = captured["seconds"]
    write_bench_trajectory("attack", trajectory)


def _jsonify(value):
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value
