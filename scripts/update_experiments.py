"""Refresh the measured-result blocks of EXPERIMENTS.md from engine JSON runs.

The experiment engine persists every scenario run as a structured JSON
record under ``results/runs/<scenario>.json`` (see ``repro.eval.engine``).
This helper renders those records with ``repro.eval.tables.render_run`` and
splices the printable blocks into the marker sections of EXPERIMENTS.md::

    <!-- BEGIN RESULTS: table3 -->
    ... regenerated content ...
    <!-- END RESULTS: table3 -->

No pytest stdout scraping is involved: re-running a scenario (CLI or bench
suite) rewrites its JSON, and re-running this script refreshes the document
idempotently.

Usage:  python scripts/update_experiments.py [results_dir] [EXPERIMENTS.md]
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.eval.engine import load_runs  # noqa: E402
from repro.eval.tables import render_run  # noqa: E402

#: Marker key -> scenario-name prefix whose runs fill the section.
SECTIONS = {
    "table3": "table3",
    "table4": "table4",
    "fig3": "fig3_geometry",
    "fig4": "fig4_saga_sample",
    "ablation_upsampling": "ablation_upsampling",
    "attack_budget_curve": "attack_budget_curve",
    "robustness_curve": "robustness_curve",
    "federated": "fl_",
    "serving_throughput": "serving_throughput",
    "serving_latency_slo": "serving_latency_slo",
    "serving_tail_latency": "serving_tail_latency",
    "serving_soak": "serving_soak",
}

_MARKER = "<!-- BEGIN RESULTS: {key} -->"
_END_MARKER = "<!-- END RESULTS: {key} -->"


def render_section(records: dict[str, dict], prefix: str) -> str | None:
    """Render every run whose scenario name starts with ``prefix``."""
    blocks = []
    for name in sorted(records):
        if not name.startswith(prefix):
            continue
        record = records[name]
        rendered = render_run(record)
        meta = (
            f"(scenario {name}, scale={record.get('scale', '?')}, "
            f"seed={record.get('seed', '?')}, {record.get('created_at', 'unknown time')})"
        )
        blocks.append(f"```\n{rendered}\n```\n{meta}")
    if not blocks:
        return None
    return "\n\n".join(blocks)


def render_bench_trajectory(repo_root: Path) -> str | None:
    """Markdown table of every ``BENCH_<area>.json`` at the repository root.

    One row per metric, grouped by area, pinned to the git SHA the bench ran
    under — the same files ``scripts/compare_bench.py`` gates CI on, so the
    document always shows the numbers the gate saw last.
    """
    rows = []
    for path in sorted(repo_root.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            continue
        sha = str(payload.get("git_sha", "?"))[:12]
        cpus = payload.get("cpu_count", "?")
        for name, value in sorted(metrics.items()):
            rows.append(
                f"| {payload.get('area', path.stem)} | {name} | {float(value):,.2f} "
                f"| {sha} | {cpus} |"
            )
    if not rows:
        return None
    header = (
        "| area | metric | value | git | cpus |\n"
        "|------|--------|------:|-----|-----:|"
    )
    return "\n".join([header, *rows])


def splice(document: str, key: str, content: str) -> str:
    """Replace the marker section ``key`` with ``content`` (idempotent)."""
    begin = _MARKER.format(key=key)
    end = _END_MARKER.format(key=key)
    pattern = re.compile(re.escape(begin) + r".*?" + re.escape(end), flags=re.DOTALL)
    if not pattern.search(document):
        return document
    return pattern.sub(f"{begin}\n{content}\n{end}", document)


def main() -> None:
    results_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else _REPO_ROOT / "results"
    experiments_path = Path(sys.argv[2]) if len(sys.argv) > 2 else _REPO_ROOT / "EXPERIMENTS.md"
    records = load_runs(results_dir)
    if not records:
        print(f"no run records under {results_dir}/runs — run `python -m repro.run <scenario>` first")
        raise SystemExit(1)
    document = experiments_path.read_text()
    updated, missing = [], []
    for key, prefix in SECTIONS.items():
        content = render_section(records, prefix)
        if content is None:
            missing.append(key)
            continue
        replaced = splice(document, key, content)
        if replaced != document:
            updated.append(key)
        document = replaced
    trajectory = render_bench_trajectory(_REPO_ROOT)
    if trajectory is None:
        missing.append("bench_trajectory")
    else:
        replaced = splice(document, "bench_trajectory", trajectory)
        if replaced != document:
            updated.append("bench_trajectory")
        document = replaced
    experiments_path.write_text(document)
    print(f"EXPERIMENTS.md refreshed from {results_dir}/runs: updated {updated or 'nothing'}")
    if missing:
        print(f"sections without runs yet: {missing}")


if __name__ == "__main__":
    main()
