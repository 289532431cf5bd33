"""Tests of the attack-engine scenarios (budget curve, robustness curve)."""

from __future__ import annotations

import pytest

from repro.eval.engine import ExperimentEngine, build_scenario, list_scenarios
from repro.eval.tables import render_run
from repro.utils.rng import set_global_seed

#: Unit-test-sized configuration overrides shared by both scenarios.
_TINY = dict(
    image_size=16,
    train_per_class=12,
    test_per_class=4,
    train_epochs=2,
    train_lr=5e-3,
    eval_samples=6,
    max_attack_steps=3,
    epsilon_scale=2.0,
)


@pytest.fixture(autouse=True)
def _seed():
    set_global_seed(20230913)


class TestBudgetCurveScenario:
    def test_registered(self):
        assert "attack_budget_curve" in list_scenarios()
        assert "robustness_curve" in list_scenarios()

    def test_run_produces_modes_curves_and_query_reduction(self):
        engine = ExperimentEngine()
        record = engine.run(build_scenario("attack_budget_curve", scale="tiny", **_TINY))
        results = record.results
        assert results["attack"] == "pgd"
        assert set(results["settings"]) == {"clear", "shielded"}
        for modes in results["settings"].values():
            assert set(modes) == {"fixed", "active", "query_reduction"}
            assert 0.0 <= modes["query_reduction"] <= 1.0
            assert modes["active"]["sample_queries"] <= modes["fixed"]["sample_queries"]
            for entry in (modes["fixed"], modes["active"]):
                assert entry["curve"], "curve must not be empty"
                queries = [point["sample_queries"] for point in entry["curve"]]
                assert queries == sorted(queries)
        assert render_run(record)  # renders without raising

    def test_backend_override_does_not_change_results(self):
        payloads = {}
        for backend in ("eager", "captured"):
            set_global_seed(20230913)
            record = ExperimentEngine().run(
                build_scenario(
                    "attack_budget_curve", scale="tiny", attack_backend=backend, **_TINY
                )
            )
            payloads[backend] = record.results
        assert payloads["eager"] == payloads["captured"]

    def test_unknown_attack_rejected(self):
        """Rejected when the scenario is built, before any defender trains."""
        with pytest.raises(KeyError, match="budget-curve attack"):
            build_scenario("attack_budget_curve", scale="tiny", attack="saga")
        assert build_scenario("attack_budget_curve", scale="tiny", attack="cw").params[
            "attack"
        ] == "cw"


class TestRobustnessCurveScenario:
    def test_rows_are_sorted_and_bounded(self):
        engine = ExperimentEngine()
        record = engine.run(
            build_scenario(
                "robustness_curve", scale="tiny", epsilons=(0.05, 0.2), **_TINY
            )
        )
        rows = record.results
        assert [row["epsilon"] for row in rows] == [0.05, 0.2]
        for row in rows:
            for key in (
                "success_unshielded",
                "success_shielded",
                "robust_unshielded",
                "robust_shielded",
            ):
                assert 0.0 <= row[key] <= 1.0
            assert row["success_unshielded"] == pytest.approx(1.0 - row["robust_unshielded"])
        # A bigger ε can only help the white-box attacker.
        assert rows[1]["success_unshielded"] >= rows[0]["success_unshielded"] - 1e-9
        assert render_run(record)

    def test_attack_override(self):
        engine = ExperimentEngine()
        record = engine.run(
            build_scenario(
                "robustness_curve", scale="tiny", attack="fgsm", epsilons=(0.1,), **_TINY
            )
        )
        assert record.results[0]["attack"] == "fgsm"

    def test_unknown_attack_rejected(self):
        """Rejected when the scenario is built, before any defender trains."""
        for attack in ("warp", "cw"):  # C&W is not ε-bounded
            with pytest.raises(KeyError, match="robustness-curve attack"):
                build_scenario("robustness_curve", scale="tiny", attack=attack)
