"""Tests of the federated (fl_*) scenarios through the experiment engine."""

from __future__ import annotations

import json

import pytest

from repro.eval.engine import ExecutorConfig, ExperimentEngine, build_scenario, list_scenarios
from repro.eval.tables import render_run
from repro.run import main

#: Overrides that shrink a tiny fl scenario to unit-test size.
_SMOKE = dict(
    train_per_class=8,
    test_per_class=4,
    eval_samples=6,
    num_clients=2,
    num_rounds=1,
    max_attack_steps=2,
)

FL_SCENARIOS = (
    "fl_fedavg",
    "fl_robust_aggregation",
    "fl_poisoning",
    "fl_shielded_global",
    "fl_thousand_clients",
)


class TestRegistry:
    def test_all_fl_scenarios_are_listed(self):
        listed = list_scenarios()
        for name in FL_SCENARIOS:
            assert name in listed
            assert listed[name]

    def test_fl_overrides_split_between_params_and_config(self):
        scenario = build_scenario(
            "fl_fedavg", scale="tiny", num_clients=7, train_per_class=9
        )
        assert scenario.kind == "federated"
        assert scenario.params["num_clients"] == 7
        assert scenario.config.train_per_class == 9
        # Values are cast to the declared field type (a CLI string too).
        assert build_scenario("fl_fedavg", scale="tiny", num_clients="7").params == scenario.params

    def test_bare_cli_values_coerce_to_tuple_params(self):
        """--set rules=median / --set fractions=0.5 must not iterate scalars."""
        scenario = build_scenario("fl_robust_aggregation", scale="tiny", rules="median")
        assert scenario.params["rules"] == ("median",)
        scenario = build_scenario("fl_poisoning", scale="tiny", fractions=0.5)
        assert scenario.params["fractions"] == (0.5,)

    def test_fl_params_without_defaults_route_to_params(self):
        """dirichlet_alpha etc. must not leak into the ExperimentConfig."""
        scenario = build_scenario(
            "fl_fedavg", scale="tiny", partition="dirichlet", dirichlet_alpha=0.1
        )
        assert scenario.params["partition"] == "dirichlet"
        assert scenario.params["dirichlet_alpha"] == 0.1
        scenario = build_scenario("fl_poisoning", scale="tiny", poison_fraction=0.3)
        assert scenario.params["poison_fraction"] == 0.3

    @pytest.mark.parametrize(
        "name, overrides, field",
        [
            ("fl_fedavg", {"partition": "dirichlett"}, "partition"),
            ("fl_fedavg", {"aggregation": "krum"}, "aggregation"),
            ("fl_robust_aggregation", {"rules": ("fedavg", "krum")}, "rules"),
            ("fl_fedavg", {"task": "nope"}, "task"),
            ("serving_tail_latency", {"policies": ("static", "fifo")}, "policies"),
        ],
    )
    def test_unknown_choice_fails_at_build_naming_its_field(self, name, overrides, field):
        value = overrides[field]
        bad = value[-1] if isinstance(value, tuple) else value
        with pytest.raises(ValueError, match=f"unknown {field}.*'{bad}'"):
            build_scenario(name, scale="tiny", **overrides)


class TestEngineRuns:
    def test_fedavg_persists_schema_valid_json(self, tmp_path):
        engine = ExperimentEngine(results_dir=tmp_path)
        record = engine.run("fl_fedavg", scale="tiny", **_SMOKE)
        payload = json.loads((tmp_path / "runs" / "fl_fedavg.json").read_text())
        assert payload["kind"] == "federated"
        results = payload["results"]
        assert results["task"] == "fedavg"
        assert results["num_clients"] == 2
        assert len(results["rounds"]) == 1
        round_entry = results["rounds"][0]
        for key in (
            "round_index",
            "participating_clients",
            "global_accuracy",
            "mean_client_loss",
            "update_bytes",
            "compromised_clients",
        ):
            assert key in round_entry
        assert round_entry["update_bytes"] > 0
        # Both the live record and the reloaded JSON render.
        assert "task=fedavg" in render_run(record)
        assert "task=fedavg" in render_run(payload)

    def test_robust_aggregation_reports_every_rule(self, tmp_path):
        engine = ExperimentEngine(results_dir=tmp_path)
        record = engine.run(
            "fl_robust_aggregation",
            scale="tiny",
            **dict(_SMOKE, num_clients=4, rules=("fedavg", "median")),
        )
        rules = record.results["rules"]
        assert set(rules) == {"fedavg", "median"}
        for entry in rules.values():
            assert "final_accuracy" in entry and "backdoor_success" in entry

    def test_shielded_global_attests_and_seals_traffic(self, tmp_path):
        engine = ExperimentEngine(results_dir=tmp_path)
        record = engine.run("fl_shielded_global", scale="tiny", **_SMOKE)
        results = record.results
        assert results["secure"]["attested_clients"] == 2
        # broadcast + update sealed per client per round
        assert results["secure"]["sealed_messages"] == 4
        assert results["secure"]["sealed_bytes"] > 0
        assert set(results["robust_accuracy"]) == {"unshielded", "shielded"}

    def test_shielded_global_runs_the_attack_its_params_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown federated evasion attack 'cw'"):
            build_scenario("fl_shielded_global", scale="tiny", attack="cw")
        engine = ExperimentEngine(results_dir=tmp_path)
        record = engine.run("fl_shielded_global", scale="tiny", attack="fgsm", **_SMOKE)
        assert record.params["attack"] == record.results["attack"] == "fgsm"
        assert set(record.results["robust_accuracy"]) == {"unshielded", "shielded"}

    def test_poisoning_sweeps_fractions(self, tmp_path):
        engine = ExperimentEngine(results_dir=tmp_path)
        record = engine.run(
            "fl_poisoning",
            scale="tiny",
            **dict(_SMOKE, num_clients=3, num_compromised=1, fractions=(0.0, 0.5)),
        )
        sweep = record.results["sweep"]
        assert [entry["poison_fraction"] for entry in sweep] == [0.0, 0.5]

    def test_thousand_clients_reports_throughput_and_bytes(self, tmp_path):
        engine = ExperimentEngine(results_dir=tmp_path)
        record = engine.run(
            "fl_thousand_clients",
            scale="tiny",
            num_clients=12,
            train_per_class=8,
            test_per_class=4,
        )
        results = record.results
        assert results["task"] == "thousand_clients"
        assert len(results["rounds"][0]["participating_clients"]) == 12
        for key in (
            "rounds_per_second",
            "updates_per_second",
            "bytes_on_wire",
            "elapsed_seconds",
        ):
            assert key in results, key
        assert results["bytes_on_wire"] == results["rounds"][0]["update_bytes"] > 0

    def test_transport_follows_executor_backend(self, tmp_path):
        engine = ExperimentEngine(
            results_dir=tmp_path,
            executor=ExecutorConfig(backend="process", max_workers=2),
        )
        record = engine.run("fl_fedavg", scale="tiny", **_SMOKE)
        assert record.results["transport"] == "process"


@pytest.mark.slow
class TestCli:
    def test_fl_smoke_produces_json(self, tmp_path, capsys):
        args = ["fl_fedavg", "--scale", "tiny", "--results-dir", str(tmp_path)]
        for key, value in _SMOKE.items():
            args += ["--set", f"{key}={value}"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Federated — task=fedavg" in out
        assert (tmp_path / "runs" / "fl_fedavg.json").is_file()
