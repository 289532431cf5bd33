"""Federated round throughput: serial vs process transports.

Runs the ``fl_fedavg`` scenario through the experiment engine once per
transport backend and reports updates/second and bytes moved per round.
Because every client task carries its own derived seed, both backends
must produce bit-identical round histories; every pair of backends run in
the same bench session is asserted identical here (the definitive parity
test, independent of selection order, lives in
``tests/fl/test_runtime.py``), so the numbers measure pure transport
overhead.  Results are persisted as engine JSON under ``results/runs``
like every other bench (the record's ``executor`` block identifies the
backend of the last run).
"""

from __future__ import annotations

import statistics

import pytest

from benchmarks.conftest import BENCH_SCALE, RESULTS_DIR, run_once, write_bench_trajectory
from repro.eval.engine import ExecutorConfig, ExperimentEngine
from repro.eval.tables import render_run

#: Round histories per backend, for the cross-backend parity assertion.
_HISTORIES: dict[str, list] = {}

#: Updates/second per backend, for the BENCH_fl.json trajectory record.
_RATES: dict[str, float] = {}

#: Thousand-client scale metrics for the trajectory record.
_SCALE_METRICS: dict[str, float] = {}


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_fl_round_throughput(benchmark, backend):
    """One fl_fedavg run per transport; identical histories, timed fan-out."""
    engine = ExperimentEngine(
        results_dir=RESULTS_DIR,
        executor=ExecutorConfig(backend=backend, max_workers=None),
    )
    record = run_once(benchmark, engine.run, "fl_fedavg", scale=BENCH_SCALE)
    rounds = record.results["rounds"]
    updates = sum(len(entry["participating_clients"]) for entry in rounds)
    bytes_moved = sum(entry["update_bytes"] for entry in rounds)
    rate = updates / max(record.duration_seconds, 1e-9)
    print()
    print(render_run(record))
    # On small machines the executor may downgrade a parallel backend to
    # serial (workers clamp); report what actually carried the rounds.
    resolved = record.results["transport"]
    print(
        f"[{backend} -> {resolved}] {updates} client updates in "
        f"{record.duration_seconds:.2f}s = {rate:.1f} updates/s, "
        f"{bytes_moved / 1e6:.2f} MB of updates per run"
    )
    assert updates > 0
    assert bytes_moved > 0
    # Transport parity: every backend run in this session must agree with
    # every other, whichever subset was selected and in whatever order.
    for other_backend, other_rounds in _HISTORIES.items():
        assert rounds == other_rounds, f"{backend} history diverges from {other_backend}"
    _HISTORIES[backend] = rounds
    _RATES[backend] = rate


#: Thousand-client runs per bench session; the trajectory records their
#: median, because a single run spreads by more than compare_bench.py's
#: tolerance on the same tree.
_THOUSAND_RUNS = 3


def test_fl_thousand_clients_round(benchmark):
    """A full thousand-client round: rounds/sec, updates/sec, bytes on wire.

    The scenario runs :data:`_THOUSAND_RUNS` times; every run must move the
    same bytes, and the recorded rates are the median over the runs.
    """
    engine = ExperimentEngine(results_dir=RESULTS_DIR)
    records = [run_once(benchmark, engine.run, "fl_thousand_clients", scale=BENCH_SCALE)]
    records += [
        engine.run("fl_thousand_clients", scale=BENCH_SCALE) for _ in range(_THOUSAND_RUNS - 1)
    ]
    runs = [record.results for record in records]
    results = runs[0]
    updates = sum(len(entry["participating_clients"]) for entry in results["rounds"])
    print()
    print(render_run(records[0]))
    for run in runs:
        print(
            f"[thousand] {updates} updates over {len(run['rounds'])} round(s) in "
            f"{run['elapsed_seconds']:.2f}s = {run['updates_per_second']:.0f} updates/s, "
            f"{run['bytes_on_wire'] / 1e6:.2f} MB on wire"
        )
    # Bench scale federates 10^3 clients (full doubles it) — the round must
    # actually complete at that population, not a clamped-down one.
    assert updates >= 1000, f"thousand-client round only saw {updates} updates"
    assert results["bytes_on_wire"] > 0
    assert all(run["bytes_on_wire"] == results["bytes_on_wire"] for run in runs)
    _SCALE_METRICS["thousand_updates_per_second"] = statistics.median(
        float(run["updates_per_second"]) for run in runs
    )
    _SCALE_METRICS["thousand_rounds_per_second"] = statistics.median(
        float(run["rounds_per_second"]) for run in runs
    )
    _SCALE_METRICS["thousand_bytes_on_wire"] = float(results["bytes_on_wire"])


def test_fl_bench_trajectory(benchmark):
    """BENCH_fl.json: per-transport round throughput joins the trajectory."""
    if not _RATES and not _SCALE_METRICS:
        pytest.skip("no fl throughput runs were selected in this session")
    metrics = {
        f"{backend}_updates_per_second": rate for backend, rate in _RATES.items()
    }
    # The serial rate includes any defender training on a cold cache; the
    # parallel backends reuse it, so the trajectory also records the best
    # parallel-over-serial ratio when both sides ran.
    parallel = [rate for backend, rate in _RATES.items() if backend != "serial"]
    if "serial" in _RATES and parallel and _RATES["serial"] > 0:
        metrics["transport_speedup"] = max(parallel) / _RATES["serial"]
    metrics.update(_SCALE_METRICS)
    path = run_once(benchmark, write_bench_trajectory, "fl", metrics)
    print(f"\nwrote {path}")
