"""Serving-gateway tail latency: continuous batching vs static wave drainer.

Runs the ``serving_tail_latency`` scenario at bench scale: an open-loop
Poisson workload over 10^5 sealed sessions pushed through the deterministic
event-loop gateway at several fractions of saturation capacity, once under
continuous batching (new admissions join in-flight work at partition-stage
boundaries) and once under the static wave drainer (max-batch / max-wait
waves, kept as the parity baseline).

Three properties are asserted, matching the gateway acceptance bar:

* at the highest swept load, continuous batching's **p99 latency does not
  exceed** the static wave drainer's — the whole point of the gateway;
* the scenario's SLO gate passes: at the gate load, continuous batching
  holds the SLO for the required fraction of completed requests;
* the simulation is **deterministic** — the latency histogram digest is
  byte-identical when the same seed and workload are replayed.

The tail-latency numbers land in ``BENCH_serving.json``, the serving
trajectory that ``scripts/compare_bench.py`` gates CI on, next to
``gateway_wallclock_rps``: the real ``GatewayService.serve()`` throughput of
96 bench-scale ViT-B/32 requests under continuous batching (``max_batch=8``),
the wall-clock counterpart of the simulated capacity.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import (
    BENCH_SCALE,
    RESULTS_DIR,
    bench_experiment_config,
    run_once,
    write_bench_trajectory,
)
from repro.eval.engine import ExperimentEngine
from repro.serve import AdmissionPolicy, GatewayPolicy, GatewayService, InferenceRequest

#: The wall-clock measurement: requests per drain, their virtual
#: inter-arrival, warm-up requests (they calibrate the stage costs) and the
#: timed drains whose median rate is recorded.
WALLCLOCK_REQUESTS = 96
WALLCLOCK_INTER_ARRIVAL_US = 150.0
WALLCLOCK_WARMUP = 16
WALLCLOCK_ROUNDS = 5


@pytest.fixture(scope="module")
def tail_latency_record(engine: ExperimentEngine):
    return engine.run("serving_tail_latency", scale=BENCH_SCALE)


@pytest.fixture(scope="module")
def wallclock_rps(engine: ExperimentEngine) -> float:
    """Median real ``serve()`` throughput over the 96 bench requests."""
    config = bench_experiment_config(dataset="cifar10")
    model = engine.cache.get_defender("vit_b32", config)
    images = engine.cache.get_dataset(config).test_images[:WALLCLOCK_REQUESTS]
    assert len(images) == WALLCLOCK_REQUESTS
    service = GatewayService(model, GatewayPolicy(
        policy="continuous", max_batch=8,
        admission=AdmissionPolicy(max_queue_depth=256, max_per_session=WALLCLOCK_REQUESTS),
    ))
    service.open_session("client")

    def requests(count: int) -> list[InferenceRequest]:
        return [
            InferenceRequest(request_id=index, payload=images[index],
                             arrival_us=index * WALLCLOCK_INTER_ARRIVAL_US, session_id="client")
            for index in range(count)
        ]

    service.serve(requests(WALLCLOCK_WARMUP))
    rates = []
    for _ in range(WALLCLOCK_ROUNDS):
        batch = requests(WALLCLOCK_REQUESTS)
        start = time.perf_counter()
        report = service.serve(batch)
        seconds = time.perf_counter() - start
        assert report.metrics["completed"] == WALLCLOCK_REQUESTS, report.metrics
        rates.append(WALLCLOCK_REQUESTS / seconds)
    return statistics.median(rates)


def _top_row(results: dict) -> dict:
    return max(results["sweep"], key=lambda row: row["load"])


def test_gateway_tail_latency(benchmark, engine):
    """Continuous vs static tail latency across the offered-load sweep."""
    record = run_once(benchmark, engine.run, "serving_tail_latency", scale=BENCH_SCALE)
    results = record.results
    print()
    print(
        f"[capacity] {results['capacity_rps']:8.1f} req/s, "
        f"SLO {results['slo_us'] / 1000:.1f} ms, "
        f"{results['num_sessions']:,} sealed sessions, "
        f"{results['requests_per_load']:,} requests/point"
    )
    for row in results["sweep"]:
        for policy in results["policies"]:
            cell = row[policy]
            print(
                f"[{row['load']:4.2f}x {policy:10s}] "
                f"p50={cell['p50_us'] / 1000:7.2f}ms "
                f"p99={cell['p99_us'] / 1000:7.2f}ms "
                f"p999={cell['p999_us'] / 1000:7.2f}ms "
                f"slo={cell['slo_attainment'] * 100:5.1f}% "
                f"shed={cell['shed_rate'] * 100:4.1f}%"
            )
    top = _top_row(results)
    assert top["continuous"]["p99_us"] <= top["static"]["p99_us"], (
        f"continuous p99 {top['continuous']['p99_us']:.0f}us exceeds static "
        f"{top['static']['p99_us']:.0f}us at {top['load']:.2f}x load"
    )
    gate = results["gate"]
    assert gate["passed"], f"tail-latency SLO gate failed: {gate}"


def test_gateway_determinism(tail_latency_record, engine):
    """Replaying one load point yields a byte-identical latency histogram."""
    from repro.eval.engine import build_scenario
    from repro.serve.gateway import ServingGateway, poisson_workload

    results = tail_latency_record.results
    scenario = build_scenario("serving_tail_latency", scale=BENCH_SCALE)
    costs = engine._gateway_costs(scenario)
    slo_us = engine._gateway_slo_us(scenario, costs)
    params = scenario.params
    load = float(min(params["loads"]))
    workload = poisson_workload(
        rate_rps=load * results["capacity_rps"],
        requests=int(params["requests"]),
        num_sessions=int(params["num_sessions"]),
        seed_name=f"gateway.{scenario.name}.load{load:g}",
    )
    policy = engine._gateway_policy(scenario, "continuous", slo_us)
    digests = set()
    for _ in range(2):
        digests.add(ServingGateway(costs, policy).simulate(workload).digest())
    assert len(digests) == 1, "same seed + workload produced differing histograms"
    recorded = min(results["sweep"], key=lambda row: abs(row["load"] - load))
    assert digests == {recorded["continuous"]["latency_digest"]}, (
        "replayed histogram digest diverges from the recorded sweep"
    )
    print(f"\n[determinism] digest={next(iter(digests))[:12]} identical across replays")


def test_gateway_wallclock_throughput(wallclock_rps):
    """Real execution serves the 96 bench requests at a positive rate."""
    print(f"\n[wall-clock] continuous max_batch=8: {wallclock_rps:8.1f} req/s")
    assert wallclock_rps > 0


def test_gateway_bench_trajectory(benchmark, tail_latency_record, wallclock_rps):
    """BENCH_serving.json: gateway tail-latency numbers join the trajectory."""
    results = tail_latency_record.results
    top = _top_row(results)
    gate_load = results["gate"]["load"]
    gate_row = min(results["sweep"], key=lambda row: abs(row["load"] - gate_load))
    path = run_once(
        benchmark,
        write_bench_trajectory,
        "serving",
        {
            "gateway_capacity_rps": results["capacity_rps"],
            "gateway_continuous_p99_us": top["continuous"]["p99_us"],
            "gateway_static_p99_us": top["static"]["p99_us"],
            "gateway_continuous_p999_us": top["continuous"]["p999_us"],
            "gateway_goodput_rps": top["continuous"]["goodput_rps"],
            "gateway_shed_rate": top["continuous"]["shed_rate"],
            "gateway_slo_attainment": gate_row["continuous"]["slo_attainment"],
            "gateway_wallclock_rps": wallclock_rps,
        },
    )
    print(f"\nwrote {path}")


def test_gateway_json_record(tail_latency_record):
    """The persisted record carries the sweep, the gate and the stage model."""
    path = RESULTS_DIR / "runs" / "serving_tail_latency.json"
    assert path.exists(), "serving_tail_latency record was not persisted"
    import json

    payload = json.loads(path.read_text())
    results = payload["results"]
    assert len(results["sweep"]) >= 3, "tail-latency sweep needs >= 3 load points"
    for row in results["sweep"]:
        for policy in results["policies"]:
            for key in ("p50_us", "p99_us", "p999_us", "latency_digest"):
                assert key in row[policy]
    assert results["gate"]["passed"] is True
    assert results["stages"], "stage cost model missing from the record"
