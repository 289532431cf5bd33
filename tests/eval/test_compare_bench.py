"""Tests of scripts/compare_bench.py, the BENCH trajectory regression gate."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_compare_bench():
    path = _REPO_ROOT / "scripts" / "compare_bench.py"
    spec = importlib.util.spec_from_file_location("compare_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, metrics: dict) -> Path:
    path.write_text(
        json.dumps(
            {
                "area": "ops",
                "git_sha": "deadbeef",
                "dtype": "float64",
                "metrics": metrics,
            }
        )
    )
    return path


class TestDirectionHeuristic:
    def test_time_metrics_are_lower_is_better(self):
        module = _load_compare_bench()
        assert module.lower_is_better("chain_eager_seconds")
        assert module.lower_is_better("kernel_dispatch_us")
        assert module.lower_is_better("gateway_shed_rate")
        assert module.lower_is_better("thousand_bytes_on_wire")
        assert module.lower_is_better("quantized_bytes_on_wire")
        assert not module.lower_is_better("batched_throughput_rps")
        assert not module.lower_is_better("quantized_compression_ratio")
        assert not module.lower_is_better("parallel_speedup")
        assert not module.lower_is_better("gateway_slo_attainment")

    def test_regression_ratio_is_direction_normalized(self):
        module = _load_compare_bench()
        # 20% slower and 20% less throughput both read as +0.2 regression.
        assert module.regression_ratio("x_seconds", 1.2, 1.0) == pytest.approx(0.2)
        assert module.regression_ratio("x_rps", 0.8, 1.0) == pytest.approx(0.2)
        # Improvements are negative in both directions.
        assert module.regression_ratio("x_seconds", 0.5, 1.0) < 0
        assert module.regression_ratio("x_rps", 2.0, 1.0) < 0


class TestGate:
    def test_passes_within_tolerance(self, tmp_path, capsys):
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"replay_seconds": 1.0, "speedup": 2.0})
        current = _write(tmp_path / "cur.json", {"replay_seconds": 1.1, "speedup": 1.9})
        assert module.main([str(current), str(previous)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_fails_beyond_tolerance(self, tmp_path, capsys):
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"replay_seconds": 1.0})
        current = _write(tmp_path / "cur.json", {"replay_seconds": 1.5})
        assert module.main([str(current), str(previous)]) == 1
        assert "replay_seconds" in capsys.readouterr().out

    def test_throughput_drop_fails(self, tmp_path):
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"queries_per_second": 100.0})
        current = _write(tmp_path / "cur.json", {"queries_per_second": 50.0})
        assert module.main([str(current), str(previous)]) == 1

    def test_custom_tolerance(self, tmp_path):
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"replay_seconds": 1.0})
        current = _write(tmp_path / "cur.json", {"replay_seconds": 1.5})
        assert module.main([str(current), str(previous), "--tolerance", "0.6"]) == 0

    def test_new_and_removed_metrics_never_gate(self, tmp_path, capsys):
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"old_seconds": 1.0})
        current = _write(tmp_path / "cur.json", {"new_seconds": 9.0})
        assert module.main([str(current), str(previous)]) == 0
        out = capsys.readouterr().out
        assert "only in baseline" in out
        assert "only in current" in out

    def test_cpu_count_mismatch_reports_without_gating(self, tmp_path, capsys):
        """Runs from different hosts never gate — speedups aren't comparable."""
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"replay_seconds": 1.0})
        current = _write(tmp_path / "cur.json", {"replay_seconds": 2.0})
        for path, cpus in ((previous, 8), (current, 1)):
            payload = json.loads(path.read_text())
            payload["cpu_count"] = cpus
            path.write_text(json.dumps(payload))
        assert module.main([str(current), str(previous)]) == 0
        out = capsys.readouterr().out
        assert "cpu_count changed" in out
        assert "host mismatch" in out

    def test_stale_shard_config_does_not_skip_the_gate(self, tmp_path):
        """Older trajectories (BENCH_fl/BENCH_serving) still carry a
        ``shard_config``; it no longer names a benchmark regime, so a
        regression between two of them is gated like any other."""
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"replay_seconds": 1.0})
        current = _write(tmp_path / "cur.json", {"replay_seconds": 2.0})
        configs = (
            {"min_band_flops": 2_000_000, "force_parallel": False},
            {"min_band_flops": 1, "force_parallel": True},
        )
        for path, config in zip((previous, current), configs):
            payload = json.loads(path.read_text())
            payload["shard_config"] = config
            path.write_text(json.dumps(payload))
        assert module.main([str(current), str(previous)]) == 1

    def test_matching_cpu_count_still_gates(self, tmp_path):
        module = _load_compare_bench()
        previous = _write(tmp_path / "prev.json", {"replay_seconds": 1.0})
        current = _write(tmp_path / "cur.json", {"replay_seconds": 2.0})
        for path in (previous, current):
            payload = json.loads(path.read_text())
            payload["cpu_count"] = 8
            path.write_text(json.dumps(payload))
        assert module.main([str(current), str(previous)]) == 1

    def test_rejects_non_trajectory_file(self, tmp_path):
        module = _load_compare_bench()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a trajectory"}))
        good = _write(tmp_path / "good.json", {"x_seconds": 1.0})
        with pytest.raises(SystemExit, match="metrics"):
            module.main([str(good), str(bad)])

    def test_trajectory_write_replaces_the_file(self, tmp_path, monkeypatch):
        """Each area has one writer: a rewrite at the same SHA keeps no stale key."""
        conftest_path = _REPO_ROOT / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest_write", conftest_path)
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        monkeypatch.setattr(bench_conftest, "REPO_ROOT", tmp_path)
        first = json.loads(
            bench_conftest.write_bench_trajectory("serving", {"throughput_rps": 100.0})
            .read_text()
        )
        path = bench_conftest.write_bench_trajectory("serving", {"gateway_p99_us": 5000.0})
        payload = json.loads(path.read_text())
        assert payload["git_sha"] == first["git_sha"]
        assert payload["metrics"] == {"gateway_p99_us": 5000.0}
        assert payload["cpu_count"] == (os.cpu_count() or 1)
        assert payload["area"] == "serving"

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
    def test_trajectory_records_a_dirty_tree(self, tmp_path, monkeypatch):
        """A change to the tree is recorded; the BENCH files themselves are not one."""
        conftest_path = _REPO_ROOT / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest_dirty", conftest_path)
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        monkeypatch.setattr(bench_conftest, "REPO_ROOT", tmp_path)

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "model.py").write_text("x = 1\n")
        (tmp_path / "BENCH_ops.json").write_text("{}\n")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True, capture_output=True, text=True
        ).stdout.strip()

        def record():
            path = bench_conftest.write_bench_trajectory("ops", {"x_s": 1.0})
            return json.loads(path.read_text())

        clean = record()  # rewrites the tracked BENCH_ops.json, which stays clean
        assert (clean["git_sha"], clean["git_dirty"]) == (head, False)
        assert record()["git_dirty"] is False
        (tmp_path / "model.py").write_text("x = 2\n")
        assert (record()["git_sha"], record()["git_dirty"]) == (head, True)
        git("checkout", "-q", "--", "model.py")
        (tmp_path / "new_module.py").write_text("y = 1\n")
        assert record()["git_dirty"] is True

    def test_gates_the_real_trajectory_files(self, tmp_path):
        """A BENCH file written by the bench conftest gates cleanly vs itself."""
        conftest_path = _REPO_ROOT / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", conftest_path)
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        module = _load_compare_bench()
        record = {
            "area": "ops",
            "git_sha": bench_conftest._git_sha(),
            "dtype": "float64",
            "metrics": {"fused_replay_seconds": 0.5, "fused_vs_eager_speedup": 2.2},
        }
        path = tmp_path / "BENCH_ops.json"
        path.write_text(json.dumps(record))
        assert module.main([str(path), str(path)]) == 0
        assert len(record["git_sha"]) in (7, 40) or record["git_sha"] == "unknown"
