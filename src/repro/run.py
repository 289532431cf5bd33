"""CLI entry point for the experiment engine.

Run any registered scenario (table, figure or ablation) by name::

    python -m repro.run table3_cifar10
    python -m repro.run table4_cifar10 --scale full --workers 8
    python -m repro.run robustness_curve --set eval_samples=32 --set epsilons=0.015,0.031,0.062
    python -m repro.run fl_fedavg --scale tiny --backend process --workers 4
    python -m repro.run --list

Results are printed as the paper's tables and persisted as JSON under
``--results-dir`` (default ``results/``); trained defenders are cached under
``results/cache/`` and reused by later runs — including the pytest bench
suite — so repeated invocations never retrain an identical defender.
Refresh EXPERIMENTS.md from the persisted JSON afterwards with
``python scripts/update_experiments.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro.autodiff.tensor import set_default_dtype
from repro.eval.engine import (
    BACKENDS,
    CellExecutor,
    ExecutorConfig,
    ExperimentEngine,
    SCALES,
    scenario_catalog,
)
from repro.eval.tables import render_run
from repro.utils.logging import set_verbosity
from repro.utils.rng import set_global_seed


def _parse_override(item: str) -> tuple[str, object]:
    """Parse one ``key=value`` override with a light literal interpretation."""
    if "=" not in item:
        raise argparse.ArgumentTypeError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    value: object = raw
    if raw.lower() in ("true", "false"):
        value = raw.lower() == "true"
    elif raw.lower() in ("none", "null"):
        value = None
    elif "," in raw:
        value = tuple(part.strip() for part in raw.split(",") if part.strip())
    else:
        for cast in (int, float):
            try:
                value = cast(raw)
                break
            except ValueError:
                continue
    return key.strip(), value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run",
        description="Run a registered PELTA experiment scenario through the engine.",
    )
    parser.add_argument("scenario", nargs="?", help="scenario name (see --list)")
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered scenarios (kind, scales, description) and exit",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the on-disk artifact cache occupancy under --results-dir and exit",
    )
    parser.add_argument(
        "--scale", default="bench", choices=sorted(SCALES), help="configuration preset"
    )
    parser.add_argument("--seed", type=int, default=20230913, help="global RNG seed")
    parser.add_argument(
        "--dtype", default=None, choices=("float32", "float64"), help="default tensor dtype"
    )
    parser.add_argument(
        "--backend", default="auto", choices=BACKENDS, help="cell execution backend"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="max parallel cells (default: one process per core, capped at the cell count)",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="directory for JSON runs and the defender cache (default: results/)",
    )
    parser.add_argument(
        "--no-persist", action="store_true", help="do not write JSON results or cache to disk"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario key (repeatable): a field of the scenario kind's params "
        "sets that parameter, any other key an ExperimentConfig field; the value is cast "
        "to the field's type, and a comma-separated list sets a tuple field",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect per-op kernel counters (counts, seconds, FLOPs, bytes) "
        "during the run and print the profile table afterwards; captured "
        "replays report wholesale as captured_replay (process workers don't "
        "feed the in-process profiler, so --backend auto runs serially)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="INFO-level progress logs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        # Group by subsystem: the attack/eval engine scenarios, the
        # federation runtime, and the serving gateway.
        groups: dict[str, list[dict]] = {"engine": [], "federated": [], "serving": []}
        for row in scenario_catalog():
            if row["kind"] == "federated":
                groups["federated"].append(row)
            elif row["kind"].startswith("serving"):
                groups["serving"].append(row)
            else:
                groups["engine"].append(row)
        scales_width = max(len("/".join(SCALES)), len("scales"))
        kind_width = max(
            [len("kind")] + [len(row["kind"]) for rows in groups.values() for row in rows]
        )
        for group, rows in groups.items():
            if not rows:
                continue
            print(f"[{group}]")
            print(
                f"{'scenario':<22} {'kind':<{kind_width}} {'scales':<{scales_width}}  description"
            )
            for row in rows:
                scales = "/".join(row["scales"])
                print(
                    f"{row['name']:<22} {row['kind']:<{kind_width}} {scales:<{scales_width}}  "
                    f"{row['description']}"
                )
            print()
        return 0
    if args.cache_stats:
        from repro.eval.engine import ArtifactCache

        cache = ArtifactCache(directory=f"{args.results_dir}/cache")
        stats = cache.disk_stats()
        print(f"artifact cache under {args.results_dir}/cache:")
        print(
            f"  {stats['defenders']} cached defender(s), "
            f"{stats['total_bytes'] / (1024 * 1024):.1f} MiB used"
            + (
                f" of {stats['budget_bytes'] / (1024 * 1024):.1f} MiB budget"
                if stats["budget_bytes"] else " (no size budget)"
            )
        )
        for entry in stats["entries"]:
            print(
                f"    {entry['key']}  {entry['bytes'] / (1024 * 1024):6.2f} MiB  "
                f"{entry['model']}"
            )
        return 0
    if not args.scenario:
        build_parser().print_usage()
        print("error: a scenario name (or --list) is required", file=sys.stderr)
        return 2
    if args.verbose:
        import logging

        set_verbosity(logging.INFO)
    if args.dtype:
        set_default_dtype(args.dtype)
    set_global_seed(args.seed)
    try:
        overrides = dict(_parse_override(item) for item in args.overrides)
        # The op profiler only sees this process, so a profiled ``auto`` run
        # keeps every cell here.
        backend = "serial" if args.profile and args.backend == "auto" else args.backend
        executor = CellExecutor(ExecutorConfig(backend=backend, max_workers=args.workers))
        engine = ExperimentEngine(
            executor=executor,
            results_dir=None if args.no_persist else args.results_dir,
        )
        if args.profile:
            from repro.autodiff.profiler import profile_ops

            with profile_ops() as profiler:
                record = engine.run(args.scenario, scale=args.scale, **overrides)
        else:
            profiler = None
            record = engine.run(args.scenario, scale=args.scale, **overrides)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except (argparse.ArgumentTypeError, TypeError, ValueError) as error:
        # Bad override / executor configuration: a clean message, not a
        # traceback (an unknown key raises TypeError, an ill-typed value
        # ValueError, both while the scenario is built).
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_run(record))
    if profiler is not None:
        print(f"\nper-op profile ({profiler.total_seconds():.2f}s in kernels):")
        print(profiler.table())
    stats = record.cache_stats
    print(
        f"\n[{record.scenario}] {record.duration_seconds:.1f}s, "
        f"{stats.get('trainings', 0)} defender(s) trained, "
        f"{stats.get('defender_hits', 0)} cache hit(s)"
        + ("" if args.no_persist else f"; JSON under {args.results_dir}/runs/")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
