#!/usr/bin/env python
"""Gate a revision's BENCH_<area>.json against the previous revision's.

Usage::

    python scripts/compare_bench.py BENCH_ops.json previous/BENCH_ops.json
    python scripts/compare_bench.py current.json previous.json --tolerance 0.20

Each ``BENCH_<area>.json`` (written by ``benchmarks/conftest.py``'s
``write_bench_trajectory``) pins one revision's normalized metrics next to
its git SHA, host ``cpu_count`` and dtype.  This script diffs two such
files metric by metric and **exits 1** when any metric regressed by more
than the tolerance (default 15%), so CI can fail a PR that slows the
replay path or the serving path down.

Direction is inferred from the metric name: ``*_seconds`` and ``*_us`` are
lower-is-better (time), as is ``*shed_rate`` (load shedding); everything
else — throughputs, speedups, widths — is higher-is-better.  Metrics present in only one file are reported but
never gate (a new benchmark must not fail the first revision that adds it).
When both files record a ``cpu_count`` and they disagree, the runs came
from different hosts and their timings are not comparable, so the diff is
printed for the record but nothing gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Name suffixes marking a metric as lower-is-better.
_LOWER_IS_BETTER_SUFFIXES = ("_seconds", "_us", "shed_rate", "_bytes_on_wire")


def lower_is_better(name: str) -> bool:
    """Whether a smaller value of this metric is an improvement."""
    return name.endswith(_LOWER_IS_BETTER_SUFFIXES)


def regression_ratio(name: str, current: float, previous: float) -> float:
    """Fractional regression of ``current`` vs ``previous`` (negative = better).

    Normalized so that +0.15 always means "15% worse", whichever direction
    the metric improves in.
    """
    if previous == 0:
        return 0.0
    change = (current - previous) / abs(previous)
    return change if lower_is_better(name) else -change


def load_metrics(path: Path) -> dict:
    payload = json.loads(path.read_text())
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise SystemExit(f"{path}: not a BENCH trajectory file (no 'metrics' object)")
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="this revision's BENCH_<area>.json")
    parser.add_argument("previous", type=Path, help="the baseline BENCH_<area>.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="maximum allowed fractional regression per metric (default 0.15)",
    )
    args = parser.parse_args(argv)

    current = load_metrics(args.current)
    previous = load_metrics(args.previous)
    print(
        f"comparing {current.get('area', '?')}: "
        f"{previous.get('git_sha', '?')[:12]} -> {current.get('git_sha', '?')[:12]} "
        f"(tolerance {args.tolerance:.0%})"
    )
    cpu_now = current.get("cpu_count")
    cpu_then = previous.get("cpu_count")
    gated = True
    if cpu_now is not None and cpu_then is not None and cpu_now != cpu_then:
        gated = False
        print(
            f"cpu_count changed ({cpu_then} -> {cpu_now}): different hosts, "
            "reporting only — no metric gates this comparison"
        )

    failures = []
    names = sorted(set(current["metrics"]) | set(previous["metrics"]))
    for name in names:
        now = current["metrics"].get(name)
        then = previous["metrics"].get(name)
        if now is None or then is None:
            side = "baseline" if now is None else "current"
            print(f"  {name:<40} only in {side}, not gated")
            continue
        regression = regression_ratio(name, float(now), float(then))
        direction = "lower" if lower_is_better(name) else "higher"
        if regression <= args.tolerance:
            verdict = "ok"
        else:
            verdict = "FAIL" if gated else "regressed (not gated: host mismatch)"
        print(
            f"  {name:<40} {then:>12.4f} -> {now:>12.4f}  "
            f"({regression:+.1%} worse, {direction}-is-better) {verdict}"
        )
        if gated and regression > args.tolerance:
            failures.append((name, regression))

    if failures:
        print(f"{len(failures)} metric(s) regressed beyond {args.tolerance:.0%}:")
        for name, regression in failures:
            print(f"  {name}: {regression:+.1%}")
        return 1
    print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
