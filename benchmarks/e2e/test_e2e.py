"""Tests of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from benchmarks.e2e import compare

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, "benchmarks/e2e/run.py"]


def _run(*args, cwd=ROOT, timeout=900):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


# --------------------------------------------------------------------------- #
# Smoke runs of the real benchmark
# --------------------------------------------------------------------------- #
def test_smoke_run_prints_every_end_to_end_metric():
    child = _run("--smoke", "--seconds", "1")
    assert child.returncode == 0, child.stderr[-3000:]
    lines = child.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][f"{workload['name']}:{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]) and entry["value"] > 0, (workload, metric)
    printed = [line.split() for line in lines if line.startswith("  ")]
    for metric in SPEC["end_to_end"]:
        rows = [row for row in printed if row[0] == metric["name"]]
        assert len(rows) == len(SPEC["workloads"])
        assert all(row[2] == metric["unit"] for row in rows)
    assert sum("failed_ops" in line for line in lines) == len(SPEC["workloads"])


@pytest.mark.parametrize("workload", ["fl_thousand_clients", "serve_vit_b32_sealed"])
def test_traced_smoke_run_self_times_sum_to_wall(workload):
    spans_path = ROOT / "benchmarks" / "e2e" / "out" / f"{workload}-seed7.spans.json"
    child = _run("--smoke", "--seconds", "1", "--trace", "1", "--seed", "7",
                 "--workload", workload)
    assert child.returncode == 0, child.stderr[-3000:]
    assert "layer tree:" in child.stdout and "unattributed" in child.stdout
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    trace = json.loads(spans_path.read_text())
    wall = sum(end - start for start, end in trace["intervals"])
    spans = {span[0]: span for span in trace["spans"]}
    children = defaultdict(float)
    for _, _, start, end, parent, _ in trace["spans"]:
        assert any(lo <= start <= end <= hi for lo, hi in trace["intervals"])
        if parent >= 0:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
            children[parent] += end - start
    self_times = [end - start - children[span_id]
                  for span_id, _, start, end, _, _ in trace["spans"]]
    assert min(self_times) >= -1e-9
    top_level = sum(end - start for _, _, start, end, parent, _ in trace["spans"] if parent < 0)
    unattributed = wall - top_level
    assert unattributed == pytest.approx(result["metrics"]["trace.unattributed_s"]["value"])
    # Top-level spans never overlap, and the layers account for the run.
    assert -1e-9 <= unattributed <= 0.1 * wall
    assert sum(self_times) + unattributed == pytest.approx(wall, rel=0.01)


def test_untraced_child_does_not_import_the_tracer():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, benchmarks.e2e.workloads; "
         "assert 'benchmarks.e2e.trace' not in sys.modules"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}", "PATH": "/usr/bin:/bin"},
    )
    assert probe.returncode == 0, probe.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=120)
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout


# --------------------------------------------------------------------------- #
# compare.py verdicts on synthetic runs
# --------------------------------------------------------------------------- #
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def _verdict(change, better="lower", bound=0.1, parent=PARENT, **kwargs):
    return compare.verdict(parent, change, better, bound, **kwargs)["verdict"]


def test_same_distribution_is_unchanged():
    assert _verdict(list(reversed(PARENT))) == "unchanged"


def test_small_slowdown_within_bound_is_unchanged():
    assert _verdict([value * 1.04 for value in PARENT]) == "unchanged"


def test_slowdown_beyond_bound_is_regressed():
    assert _verdict([value * 1.2 for value in PARENT]) == "regressed"


def test_consistent_speedup_is_improved():
    assert _verdict([value * 0.9 for value in PARENT]) == "improved"


def test_direction_follows_better_higher():
    assert _verdict([value * 0.8 for value in PARENT], better="higher") == "regressed"
    assert _verdict([value * 1.1 for value in PARENT], better="higher") == "improved"


def test_spread_beyond_bound_is_unresolved():
    noisy = [70.0, 130.0, 95.0, 105.0, 60.0, 140.0, 100.0, 90.0, 110.0, 120.0]
    assert _verdict(noisy) == "unresolved"


def test_noisy_change_beating_every_parent_run_is_improved():
    noisy = [50.0, 60.0, 55.0, 80.0, 52.0, 75.0, 58.0, 62.0, 79.0, 51.0]
    assert _verdict(noisy) == "improved"


def test_speedup_over_too_few_pairs_is_not_a_gain():
    assert _verdict([value * 0.9 for value in PARENT[:5]], parent=PARENT[:5]) == "unresolved"


def test_speedup_with_more_failures_is_not_a_gain():
    assert _verdict([value * 0.9 for value in PARENT], more_failures=True) == "unresolved"


def test_compare_pairs_by_seed_and_reports_failed_share():
    runs_a = [compare.Run("fl_thousand_clients", seed, {"latency_ms": 100.0 + seed}, 10, 0)
              for seed in range(10)]
    runs_b = [compare.Run("fl_thousand_clients", seed, {"latency_ms": 80.0 + seed}, 10, 1)
              for seed in reversed(range(10))]
    (row,) = compare.compare(runs_a, runs_b, SPEC)
    assert row["win_share"] == 1.0
    assert row["failed_share"] == (0.0, 0.1)
    assert row["verdict"] == "unresolved"
