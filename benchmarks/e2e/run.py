"""End-to-end benchmark of the PELTA reproduction: one command, every metric.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME]... [--seed 20230913]
        [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (``benchmarks/e2e/workloads.py``)
whose environment has every ``REPRO_*`` variable removed, so the program runs
at its defaults.  This process only starts the children, checks that each
reported every metric ``BENCHMARK.json`` names (end-to-end metrics, or the
per-layer ones with ``--trace``), prints them with their units, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  It exits
non-zero without that line when a child fails, or when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Traced runs write their spans here (ignored by git).
SPANS_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 20230913
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def child_environment() -> tuple[dict[str, str], list[str]]:
    """The parent's environment without ``REPRO_*``, plus the names removed."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env, removed


def host_info(removed: list[str]) -> dict:
    """Revision and host: git SHA and dirty flag (in a git checkout only)."""
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "removed_env": removed,
    }


def run_workload(name: str, args, env: dict[str, str]) -> dict:
    """Run one workload in a child process and return its parsed result."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.workloads",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        command += ["--spans", str(SPANS_DIR / f"{name}-seed{args.seed}.spans.json")]
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:
        raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT_S} s") from error
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        tail = "\n".join(child.stderr.splitlines()[-20:])
        raise RuntimeError(f"{name}: child exited with {child.returncode}\n{tail}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select_metrics(result: dict, wanted: list[dict]) -> dict[str, dict]:
    """The metrics ``BENCHMARK.json`` names, with units; raises if one is missing."""
    metrics = {}
    for entry in wanted:
        value = result["metrics"].get(entry["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{result['workload']}: metric {entry['name']} is {value!r}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def report(result: dict, metrics: dict[str, dict]) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {result['seconds']:g} s"
          f"{', traced' if result['trace'] else ''}{', smoke' if result['smoke'] else ''}) ==")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  ops {result['attempted']}  failed_ops {result['failed']}  "
          f"calls {result['calls']}  outputs sha256 {result['outputs_sha256'][:16]}")
    for reason in result["failures"]:
        print(f"  failed: {reason}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer traced run instead of the end-to-end metrics")
    parser.add_argument("--out", type=Path, help="also write every result to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (for the tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env, removed = child_environment()
    host = host_info(removed)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = args.workload or names
    results, combined = [], {}
    for name in selected:
        try:
            result = run_workload(name, args, env)
            metrics = select_metrics(result, wanted)
        except RuntimeError as error:
            print(error, file=sys.stderr)
            return 1
        report(result, metrics)
        results.append({**result, "selected_metrics": metrics})
        for metric, value in metrics.items():
            combined[metric if len(selected) == 1 else f"{name}:{metric}"] = value
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"host": host, "runs": results}, indent=1) + "\n")
    print(f"host: {host['cpu_count']} cpus, git {host['git_sha'][:12]}"
          f"{' (dirty)' if host['git_dirty'] else ''}, removed env {removed or 'none'}")
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
