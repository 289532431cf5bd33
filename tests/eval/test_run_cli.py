"""Tests of the ``python -m repro.run`` CLI and scripts/update_experiments.py."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.run import _parse_override, main

_REPO_ROOT = Path(__file__).resolve().parents[2]

_TINY_ARGS = [
    "--scale",
    "tiny",
    "--set",
    "models=simple_cnn",
    "--set",
    "attacks=fgsm",
    "--set",
    "train_per_class=12",
    "--set",
    "test_per_class=4",
    "--set",
    "train_epochs=2",
    "--set",
    "eval_samples=6",
]


class TestParseOverride:
    def test_literal_interpretation(self):
        assert _parse_override("train_epochs=3") == ("train_epochs", 3)
        assert _parse_override("train_lr=0.005") == ("train_lr", 0.005)
        assert _parse_override("dataset=cifar100") == ("dataset", "cifar100")
        assert _parse_override("attacks=fgsm,pgd") == ("attacks", ("fgsm", "pgd"))
        assert _parse_override("num_classes=none") == ("num_classes", None)

    def test_malformed_override_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_override("not-an-override")


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table3_cifar10" in out
        assert "robustness_curve" in out

    def test_list_shows_kinds_and_scales(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("table3_cifar10"):
                assert "individual" in line
                assert "tiny/bench/full" in line
                break
        else:  # pragma: no cover - the scenario is always registered
            pytest.fail("table3_cifar10 missing from --list output")
        assert "serving_throughput" in out
        assert "federated" in out

    def test_list_groups_scenarios_by_subsystem(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        # The three group headers appear, in engine -> federated -> serving
        # order, and each scenario sits under its subsystem's header.
        positions = {group: out.index(f"[{group}]") for group in ("engine", "federated", "serving")}
        assert positions["engine"] < positions["federated"] < positions["serving"]
        assert positions["engine"] < out.index("table3_cifar10") < positions["federated"]
        assert positions["federated"] < out.index("fl_fedavg") < positions["serving"]
        assert out.index("serving_tail_latency") > positions["serving"]
        assert out.index("serving_soak") > positions["serving"]

    def test_cache_stats_on_empty_directory(self, tmp_path, capsys):
        assert main(["--cache-stats", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 cached defender(s)" in out

    def test_missing_scenario_is_an_error(self):
        assert main([]) == 2

    def test_unknown_scenario_is_an_error(self):
        assert main(["definitely_not_a_scenario", "--no-persist"]) == 2

    def test_profile_keeps_the_cells_rows_at_the_default_backend(self, capsys, monkeypatch):
        # The op profiler only sees the calling process, so a profiled
        # ``auto`` run must keep its cells out of the worker pool.
        monkeypatch.delenv("REPRO_ENGINE_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_ENGINE_WORKERS", raising=False)
        args = ["table3_cifar10", *_TINY_ARGS, "--set", "attacks=fgsm,pgd", "--no-persist"]
        assert main([*args, "--profile"]) == 0
        out = capsys.readouterr().out
        table = out.split("per-op profile", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
        calls = {row.split()[0]: int(row.split()[1]) for row in table}
        assert calls["conv2d"] > 0
        assert calls["matmul"] > 0
        # Only the attack cells replay captured graphs.
        assert calls["captured_replay"] > 0

    @pytest.mark.slow
    def test_run_persists_json_and_prints_table(self, tmp_path, capsys):
        code = main(["table3_cifar10", *_TINY_ARGS, "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III — Robust accuracy" in out
        record = json.loads((tmp_path / "runs" / "table3_cifar10.json").read_text())
        assert record["scenario"] == "table3_cifar10"
        assert record["results"][0]["model_name"] == "simple_cnn"
        assert (tmp_path / "cache" / "defenders").is_dir()


def _load_update_experiments():
    path = _REPO_ROOT / "scripts" / "update_experiments.py"
    spec = importlib.util.spec_from_file_location("update_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
class TestUpdateExperiments:
    def test_splices_rendered_json_into_markers(self, tmp_path, monkeypatch, capsys):
        assert main(["table3_cifar10", *_TINY_ARGS, "--results-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        document = tmp_path / "EXPERIMENTS.md"
        document.write_text(
            "# doc\n\n<!-- BEGIN RESULTS: table3 -->\nplaceholder\n"
            "<!-- END RESULTS: table3 -->\n\n<!-- BEGIN RESULTS: table4 -->\n"
            "placeholder\n<!-- END RESULTS: table4 -->\n"
        )
        module = _load_update_experiments()
        monkeypatch.setattr(sys, "argv", ["update_experiments.py", str(tmp_path), str(document)])
        module.main()
        text = document.read_text()
        assert "Table III — Robust accuracy" in text
        assert "placeholder" not in text.split("table4 -->")[0]
        # The table4 section has no run yet and keeps its placeholder.
        assert "placeholder" in text
        # Idempotent: splicing again leaves the document unchanged.
        module.main()
        assert document.read_text() == text

    def test_exits_when_no_runs_exist(self, tmp_path, monkeypatch):
        module = _load_update_experiments()
        document = tmp_path / "EXPERIMENTS.md"
        document.write_text("# doc\n")
        monkeypatch.setattr(sys, "argv", ["update_experiments.py", str(tmp_path), str(document)])
        with pytest.raises(SystemExit):
            module.main()
