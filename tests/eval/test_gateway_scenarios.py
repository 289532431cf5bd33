"""Engine tests for the serving_tail_latency gateway scenario."""

from __future__ import annotations

import pytest

from repro.eval.engine import SCALES, ExperimentEngine, build_scenario, scenario_catalog
from repro.eval.tables import render_run
from repro.utils.rng import set_global_seed

#: Small enough for the tier-1 suite: the defender trains in seconds and the
#: simulation itself is cheap at any request count.
_TINY = dict(
    train_per_class=12,
    test_per_class=6,
    train_epochs=2,
    requests=400,
    num_sessions=2000,
    max_batch=4,
    replicas=2,
)


@pytest.fixture(autouse=True)
def _seed():
    set_global_seed(20230913)


class TestGatewayScenarioRegistry:
    def test_presets_cover_every_scale(self):
        sessions = {
            scale: build_scenario("serving_tail_latency", scale=scale).params["num_sessions"]
            for scale in SCALES
        }
        assert set(sessions) == {"tiny", "bench", "full"}
        assert sessions["tiny"] < sessions["bench"] < sessions["full"]
        # The full preset simulates a million sealed sessions.
        assert sessions["full"] >= 1_000_000

    def test_build_routes_overrides(self):
        scenario = build_scenario(
            "serving_tail_latency", scale="tiny", max_batch=16, train_per_class=9
        )
        assert scenario.kind == "serving_tail_latency"
        assert scenario.params["max_batch"] == 16
        assert scenario.config.train_per_class == 9
        assert len(scenario.params["loads"]) >= 3
        assert scenario.params["policies"] == ("continuous", "static")

    def test_ill_typed_param_fails_at_build(self):
        with pytest.raises(ValueError, match="max_batch='x'"):
            build_scenario("serving_tail_latency", scale="tiny", max_batch="x")

    def test_catalog_reports_gateway_kinds(self):
        rows = {row["name"]: row for row in scenario_catalog()}
        assert rows["serving_tail_latency"]["kind"] == "serving_tail_latency"


@pytest.mark.slow
class TestGatewayScenarioRuns:
    def test_tail_latency_record_gate_and_render(self):
        engine = ExperimentEngine()
        record = engine.run("serving_tail_latency", scale="tiny", **_TINY)
        results = record.results
        assert len(results["sweep"]) >= 3
        for row in results["sweep"]:
            for policy in results["policies"]:
                cell = row[policy]
                assert cell["p50_us"] <= cell["p99_us"] <= cell["p999_us"]
                assert 0.0 <= cell["slo_attainment"] <= 1.0
                assert len(cell["latency_digest"]) == 64
        top = max(results["sweep"], key=lambda row: row["load"])
        assert top["continuous"]["p99_us"] <= top["static"]["p99_us"]
        assert results["gate"]["passed"] is True
        rendered = render_run(record)
        assert "Serving tail latency" in rendered
        assert "gate [PASS]" in rendered

    def test_tail_latency_is_deterministic_across_runs(self):
        engine = ExperimentEngine()
        digests = []
        for _ in range(2):
            set_global_seed(20230913)
            record = engine.run("serving_tail_latency", scale="tiny", **_TINY)
            digests.append(
                [
                    (row["load"], row[policy]["latency_digest"])
                    for row in record.results["sweep"]
                    for policy in record.results["policies"]
                ]
            )
        assert digests[0] == digests[1]

    def test_tail_latency_rows_conserve_requests_under_shedding(self):
        engine = ExperimentEngine()
        overrides = {**_TINY, "loads": (0.5, 1.5), "max_queue_depth": 16}
        record = engine.run("serving_tail_latency", scale="tiny", **overrides)
        results = record.results
        for row in results["sweep"]:
            for policy in results["policies"]:
                assert row[policy]["invariants"] == {
                    "offered_equals_admitted_plus_shed": True,
                    "all_admitted_completed": True,
                }
        # The overloaded row really sheds: the invariants are not vacuous.
        top = max(results["sweep"], key=lambda row: row["load"])
        assert top["continuous"]["shed"].get("queue_full", 0) > 0
