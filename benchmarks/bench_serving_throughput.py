"""Serving-runtime throughput: dynamic micro-batching vs single-request.

Runs the ``serving_throughput`` scenario at bench scale: a trained ViT
defender served through the shielded inference runtime — partition-staged
stem in the enclave, captured forward replay, dynamic micro-batching — and
compares against single-request serving (one eager forward per query, the
pre-serving behaviour of this repo).

Three properties are asserted, matching the serving acceptance bar:

* dynamic micro-batching serves **≥ 3×** the single-request throughput;
* captured replay logits are **bit-identical** to eager execution of the
  same batches;
* batched and unbatched serving agree on every prediction, and per-request
  world-switch counts land in the persisted JSON record.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    BENCH_SCALE,
    RESULTS_DIR,
    run_once,
    write_bench_trajectory,
)
from repro.eval.engine import ExperimentEngine

_SPEEDUP_TARGET = 3.0


@pytest.fixture(scope="module")
def serving_record(engine: ExperimentEngine):
    return engine.run("serving_throughput", scale=BENCH_SCALE)


def test_serving_throughput(benchmark, engine):
    """Batched vs single-request throughput, persisted under results/runs."""
    record = run_once(benchmark, engine.run, "serving_throughput", scale=BENCH_SCALE)
    results = record.results
    batched = results["batched"]
    single = results["single"]
    print()
    print(
        f"[batched ] {batched['throughput_rps']:8.1f} req/s  "
        f"mean batch {batched['mean_batch_size']:.1f}, "
        f"{batched['world_switches_per_request']:.2f} switches/request"
    )
    print(
        f"[single  ] {single['throughput_rps']:8.1f} req/s  "
        f"{single['world_switches_per_request']:.2f} switches/request"
    )
    print(
        f"[speedup ] {results['speedup']:.2f}x vs single-request serving "
        f"({results['batching_only_speedup']:.2f}x from batching alone)"
    )
    assert results["speedup"] >= _SPEEDUP_TARGET, (
        f"dynamic micro-batching reached only {results['speedup']:.2f}x single-request "
        f"throughput (target {_SPEEDUP_TARGET}x)"
    )
    # World-switch accounting must be present and consistent: one enter +
    # one exit per dispatched forward, amortised over the batch.
    assert batched["world_switches_per_request"] > 0
    assert single["world_switches_per_request"] == pytest.approx(2.0)
    assert batched["world_switches_per_request"] < single["world_switches_per_request"]
    # Parity is asserted here too so `--benchmark-only` runs (which skip the
    # plain tests below) still enforce the full acceptance bar.
    assert results["parity"]["captured_vs_eager"]
    assert results["parity"]["batched_vs_single"]


def test_serving_parity(serving_record):
    """Captured replay is bit-identical to eager; batching changes nothing."""
    parity = serving_record.results["parity"]
    assert parity["captured_vs_eager"], "captured serving logits diverge from eager"
    assert parity["batched_vs_single"], "batched serving predictions diverge from unbatched"


def test_serving_bench_trajectory(serving_record):
    """BENCH_serving.json: this revision's serving numbers for the trajectory."""
    results = serving_record.results
    path = write_bench_trajectory(
        "serving",
        {
            "batched_throughput_rps": results["batched"]["throughput_rps"],
            "single_throughput_rps": results["single"]["throughput_rps"],
            "speedup": results["speedup"],
            "batching_only_speedup": results["batching_only_speedup"],
        },
    )
    print(f"\nwrote {path}")


def test_serving_json_record(serving_record):
    """The persisted record carries the per-request world-switch counts."""
    path = RESULTS_DIR / "runs" / "serving_throughput.json"
    assert path.exists(), "serving_throughput record was not persisted"
    import json

    payload = json.loads(path.read_text())
    for mode in ("batched", "single"):
        assert "world_switches_per_request" in payload["results"][mode]
    assert payload["results"]["sealed"]["roundtrip_ok"] is True
