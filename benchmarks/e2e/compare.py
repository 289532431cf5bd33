"""A/B comparison of two revisions on the end-to-end benchmark.

Run alternating pairs from two source trees (each tree's own
``benchmarks/e2e/run.py`` and ``src/``), or read result files saved with
``run.py --out``::

    python -m benchmarks.e2e.compare --tree-a PARENT --tree-b CHANGE [--pairs 10]
        [--workload NAME]... [--seconds S] [--seed 1]
    python -m benchmarks.e2e.compare --results-a A1.json ... --results-b B1.json ...

For every (workload, end-to-end metric) it prints both sides' medians and
quartiles, the share of pairs the change won, and one verdict, using the
bounds and directions in ``BENCHMARK.json``:

* ``unresolved`` — a side's spread (quartile distance over median) exceeds
  the bound, unless every run of the change beats every run of the parent;
* ``improved`` — over at least ten pairs, the change won at least 90% of
  them (ties count for neither) and the medians differ by more than the
  parent's quartile distance, with no more failed operations than the parent;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — otherwise.

It also prints each side's failed-operation share, and exits 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Share of pairs the change must win to claim a gain, and the fewest pairs
#: a gain may rest on.
WIN_SHARE = 0.9
MIN_PAIRS = 10


@dataclass
class Run:
    """One benchmark run of one workload: its metric values and op counts."""

    workload: str
    seed: int | None
    metrics: dict[str, float]
    attempted: int
    failed: int


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool = False) -> dict:
    """Compare paired runs of one metric (pairs are equal indices)."""
    sign = 1.0 if better == "lower" else -1.0
    parent_q, change_q = quartiles(parent), quartiles(change)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    spread = max(
        (parent_q[2] - parent_q[0]) / abs(parent_median),
        (change_q[2] - change_q[0]) / abs(change_median),
    )
    #: Positive when the change is worse, as a share of the parent's median.
    worse = sign * (change_median - parent_median) / abs(parent_median)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    beats_all = (max(change) < min(parent)) if sign > 0 else (min(change) > max(parent))
    if spread > bound and not beats_all:
        outcome = "unresolved"
    elif worse < 0 and (beats_all or (
        win_share >= WIN_SHARE
        and abs(change_median - parent_median) > parent_q[2] - parent_q[0]
    )):
        outcome = "unresolved" if more_failures or len(pairs) < MIN_PAIRS else "improved"
    elif worse > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "parent_median": parent_median,
        "parent_quartiles": (parent_q[0], parent_q[2]),
        "change_median": change_median,
        "change_quartiles": (change_q[0], change_q[2]),
        "worse": worse,
        "spread": spread,
        "win_share": win_share,
        "verdict": outcome,
    }


def compare(parent: list[Run], change: list[Run], spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) both sides measured."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a = [run for run in parent if run.workload == workload]
        b = [run for run in change if run.workload == workload]
        if not a or not b:
            continue
        # Pair by seed where both sides ran it, else by position.
        by_seed = {run.seed: run for run in b}
        if all(run.seed in by_seed for run in a) and len(a) == len(b):
            b = [by_seed[run.seed] for run in a]
        a_failed = sum(run.failed for run in a) / max(sum(run.attempted for run in a), 1)
        b_failed = sum(run.failed for run in b) / max(sum(run.attempted for run in b), 1)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not all(name in run.metrics for run in a + b):
                continue
            row = verdict(
                [run.metrics[name] for run in a],
                [run.metrics[name] for run in b],
                metric["better"],
                metric["bound"],
                more_failures=b_failed > a_failed,
            )
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"], runs=(len(a), len(b)),
                       failed_share=(a_failed, b_failed))
            rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<22} {'metric':<12} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'worse':>7} {'spread':>7} {'bound':>6} "
        f"{'wins':>5} {'failed A/B':>13}  verdict"
    ]
    for row in rows:
        pq, cq = row["parent_quartiles"], row["change_quartiles"]
        lines.append(
            f"{row['workload']:<22} {row['metric']:<12} "
            f"{row['parent_median']:>11.5g} [{pq[0]:>8.5g}, {pq[1]:>8.5g}] "
            f"{row['change_median']:>11.5g} [{cq[0]:>8.5g}, {cq[1]:>8.5g}] "
            f"{row['worse']:>+7.1%} {row['spread']:>7.1%} {row['bound']:>6.0%} "
            f"{row['win_share']:>5.0%} "
            f"{row['failed_share'][0]:>6.1%}/{row['failed_share'][1]:<6.1%}"
            f"  {row['verdict']}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Collecting runs
# --------------------------------------------------------------------------- #
def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    """One untraced run of ``workload`` with the benchmark of ``tree``."""
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    if child.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed\n{child.stderr[-2000:]}")
    result = json.loads(child.stdout.splitlines()[-1])
    return Run(workload, seed, {name: m["value"] for name, m in result["metrics"].items()},
               result["attempted"], result["failed"])


def run_pairs(tree_a: Path, tree_b: Path, workloads: list[str], pairs: int, seconds: float,
              seed: int) -> tuple[list[Run], list[Run]]:
    """Alternate which side runs first; both sides of a pair share a seed."""
    parent, change = [], []
    for index in range(pairs):
        for workload in workloads:
            order = [(tree_a, parent), (tree_b, change)]
            if index % 2:
                order.reverse()
            for tree, runs in order:
                runs.append(run_tree(tree, workload, seed + index, seconds))
                print(f"pair {index + 1}/{pairs} {workload} {tree}: "
                      f"{runs[-1].metrics}", file=sys.stderr, flush=True)
    return parent, change


def load_results(paths: list[Path]) -> list[Run]:
    """Runs from files written by ``run.py --out``."""
    runs = []
    for path in paths:
        for result in json.loads(path.read_text())["runs"]:
            if result.get("trace"):
                continue
            runs.append(Run(
                result["workload"], result.get("seed"),
                {name: m["value"] for name, m in result["selected_metrics"].items()},
                result["attempted"], result["failed"],
            ))
    return runs


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree-a", type=Path, help="parent source tree")
    parser.add_argument("--tree-b", type=Path, help="change source tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--results-a", type=Path, nargs="+")
    parser.add_argument("--results-b", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.results_a and args.results_b:
        parent, change = load_results(args.results_a), load_results(args.results_b)
    elif args.tree_a and args.tree_b:
        parent, change = run_pairs(args.tree_a, args.tree_b, args.workload or names,
                                   args.pairs, args.seconds, args.seed)
    else:
        parser.error("give --tree-a/--tree-b or --results-a/--results-b")
    rows = compare(parent, change, spec)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
