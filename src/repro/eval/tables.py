"""Plain-text formatting of the reproduced tables and figure summaries.

Tables I / II are formatted from static model / parameter data.  Every
scenario's results (Tables III / IV, the Fig. 3 / Fig. 4 summaries, the
ablations, the federated, attack-engine and gateway sweeps) are formatted
from their JSON form, the ``results`` of a run record; :func:`render_run`
converts a live record to that form first, so a run renders identically
before and after it is persisted under ``results/runs/``.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.attacks.configs import TABLE2_PARAMETERS
from repro.core.memory_cost import format_bytes, paper_table1


def format_table1() -> str:
    """Table I: estimated enclave memory cost per model, ours vs the paper."""
    lines = [
        "Table I — Estimated enclave memory cost and shielded model portion",
        f"{'Model':<16}{'Shielded %':>12}{'Paper %':>12}{'Params only':>14}{'Worst case':>14}{'Paper':>12}",
    ]
    for row in paper_table1():
        lines.append(
            f"{row['model']:<16}"
            f"{row['shielded_portion'] * 100:>11.3f}%"
            f"{row['paper_shielded_portion'] * 100:>11.3f}%"
            f"{format_bytes(row['parameters_only_bytes']):>14}"
            f"{format_bytes(row['worst_case_bytes']):>14}"
            f"{format_bytes(row['paper_tee_bytes']):>12}"
        )
    return "\n".join(lines)


def format_table2() -> str:
    """Table II: attack parameters per dataset."""
    lines = ["Table II — Attack parameters"]
    for name, params in TABLE2_PARAMETERS.items():
        lines.append(f"[{name}]")
        lines.append(f"  FGSM  eps={params.epsilon}")
        lines.append(
            f"  PGD   eps={params.epsilon}, eps_step={params.step_size}, steps={params.pgd_steps}"
        )
        lines.append(
            f"  MIM   eps={params.epsilon}, eps_step={params.step_size}, mu={params.mim_decay}"
        )
        lines.append(
            f"  APGD  eps={params.epsilon}, Nrestarts={params.apgd_restarts}, "
            f"rho={params.apgd_rho}, queries={params.apgd_queries}"
        )
        lines.append(
            f"  C&W   confidence={params.cw_confidence}, eps_step={params.step_size}, "
            f"steps={params.cw_steps}"
        )
        lines.append(
            f"  SAGA  alpha_cnn={params.saga_alpha_cnn}, eps_step={params.saga_step_size}"
        )
    return "\n".join(lines)


def format_table3(results: list[Mapping[str, Any]]) -> str:
    """Table III: robust accuracy of non-shielded vs shielded individual models."""
    if not results:
        return "Table III — no results"
    attacks = list(results[0]["robust"].keys())
    header = f"{'Model':<16}" + "".join(f"{attack.upper():>20}" for attack in attacks) + f"{'Clean':>9}"
    sub = f"{'':<16}" + "".join(f"{'clear':>10}{'shield':>10}" for _ in attacks) + f"{'':>9}"
    lines = [
        f"Table III — Robust accuracy, dataset={results[0]['dataset']} "
        f"({results[0]['eval_samples']} correctly classified samples)",
        header,
        sub,
    ]
    for result in results:
        row = f"{result['model_name']:<16}"
        for attack in attacks:
            values = result["robust"].get(attack, {})
            row += f"{values.get('unshielded', float('nan')) * 100:>9.1f}%"
            row += f"{values.get('shielded', float('nan')) * 100:>9.1f}%"
        row += f"{result['clean_accuracy'] * 100:>8.1f}%"
        lines.append(row)
    return "\n".join(lines)


def format_table4(result: Mapping[str, Any]) -> str:
    """Table IV: robust accuracy of the shielded ensemble against SAGA."""
    rows = ("vit", "cnn", "ensemble")
    labels = {"vit": result["vit_name"], "cnn": result["cnn_name"], "ensemble": "Ensemble"}
    robust = result["robust"]
    lines = [
        f"Table IV — Ensemble vs SAGA, dataset={result['dataset']} "
        f"({result['eval_samples']} correctly classified samples)",
        f"{'Model':<16}{'Clean':>9}{'Random':>9}"
        f"{'None':>9}{'ViT only':>10}{'CNN only':>10}{'Both':>9}",
    ]
    for row in rows:
        lines.append(
            f"{labels[row]:<16}"
            f"{result['clean_accuracy'].get(row, float('nan')) * 100:>8.1f}%"
            f"{result['random_astuteness'].get(row, float('nan')) * 100:>8.1f}%"
            f"{robust.get('none', {}).get(row, float('nan')) * 100:>8.1f}%"
            f"{robust.get('vit_only', {}).get(row, float('nan')) * 100:>9.1f}%"
            f"{robust.get('cnn_only', {}).get(row, float('nan')) * 100:>9.1f}%"
            f"{robust.get('both', {}).get(row, float('nan')) * 100:>8.1f}%"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figure and ablation summaries
# --------------------------------------------------------------------------- #
def format_fig3(study: Mapping[str, Any]) -> str:
    """Fig. 3 summary: attack trajectories on the toy problem."""
    origin = [round(float(value), 3) for value in study["origin"]]
    lines = [
        f"Figure 3 — attack geometry (epsilon={study['epsilon']}, label={study['label']})",
        f"origin: {origin}",
    ]
    for name, trajectory in study["trajectories"].items():
        points = trajectory["points"]
        end = [round(float(value), 3) for value in points[-1]]
        lines.append(
            f"  {name:5s} steps={len(points) - 1:2d} end={end} "
            f"max_linf={trajectory['max_linf']:.3f} "
            f"crossed_boundary={trajectory['crossed_boundary']}"
        )
    return "\n".join(lines)


def format_fig4(study: Mapping[str, Any]) -> str:
    """Fig. 4 summary: per-setting SAGA outcome on one sample."""
    lines = [
        f"Figure 4 — SAGA on one correctly classified sample (true label {study['label']})",
        f"{'Setting':<10}{'linf':>8}{'l2':>8}{'ViT pred':>10}{'CNN pred':>10}{'Attack':>10}",
    ]
    for setting, outcome in study["settings"].items():
        verdict = "success" if outcome["attack_success"] else "failure"
        lines.append(
            f"{setting:<10}{outcome['linf']:>8.4f}{outcome['l2']:>8.3f}"
            f"{outcome['vit_prediction']:>10d}{outcome['cnn_prediction']:>10d}{verdict:>10}"
        )
    return "\n".join(lines)


def format_upsampling_ablation(results: Mapping[str, float]) -> str:
    """Ablation: attacker upsampling substitutes against a shielded BiT."""
    lines = ["Ablation — robust accuracy of a shielded BiT under different attacker substitutes"]
    for name, value in results.items():
        lines.append(f"  {name:16s} robust accuracy = {value * 100:.1f}%")
    return "\n".join(lines)


def format_federated(payload: Mapping[str, Any]) -> str:
    """Summary of one federated (``fl_*``) scenario run."""
    header = (
        f"Federated — task={payload.get('task')}, transport={payload.get('transport')}, "
        f"clients={payload.get('num_clients')}, rounds={payload.get('num_rounds')}"
    )
    lines = [header]

    def _rounds_block(rounds, indent: str = "  ") -> None:
        lines.append(
            f"{indent}{'round':>5}{'clients':>9}{'accuracy':>10}{'loss':>9}"
            f"{'bytes':>12}{'compromised':>13}"
        )
        for entry in rounds:
            lines.append(
                f"{indent}{entry['round_index']:>5}"
                f"{len(entry['participating_clients']):>9}"
                f"{entry['global_accuracy'] * 100:>9.1f}%"
                f"{entry['mean_client_loss']:>9.3f}"
                f"{entry['update_bytes']:>12,}"
                f"{len(entry['compromised_clients']):>13}"
            )

    if "rounds" in payload:
        _rounds_block(payload["rounds"])
    if "rules" in payload:
        lines.append(f"  aggregation rules ({payload.get('num_compromised', 0)} attacker(s)):")
        for rule, entry in payload["rules"].items():
            lines.append(
                f"    {rule:<14} final accuracy={entry['final_accuracy'] * 100:6.1f}%"
                f"  backdoor success={entry['backdoor_success'] * 100:6.1f}%"
            )
    if "sweep" in payload:
        lines.append(f"  poisoning sweep ({payload.get('num_compromised', 0)} attacker(s)):")
        for entry in payload["sweep"]:
            lines.append(
                f"    fraction={entry['poison_fraction']:.2f}"
                f"  final accuracy={entry['final_accuracy'] * 100:6.1f}%"
                f"  backdoor success={entry['backdoor_success'] * 100:6.1f}%"
            )
    if "robust_accuracy" in payload:
        robust = payload["robust_accuracy"]
        lines.append(
            f"  global-model robustness ({payload.get('attack', '?')}, "
            f"{payload.get('eval_samples', 0)} samples): "
            f"unshielded={robust['unshielded'] * 100:.1f}%  "
            f"shielded={robust['shielded'] * 100:.1f}%"
        )
    secure = payload.get("secure")
    if secure and secure.get("attested_clients"):
        lines.append(
            f"  secure sessions: {secure['attested_clients']} attested client(s), "
            f"{secure['sealed_messages']} sealed message(s), "
            f"{secure['sealed_bytes']:,} bytes through the channel"
        )
    return "\n".join(lines)


def render_run(record) -> str:
    """Render a run record (live :class:`~repro.eval.engine.RunRecord` or a
    JSON dict loaded from ``results/runs/``) into its printable block."""
    # Deferred: the engine's kind table names the formatters of this module.
    from repro.eval.engine import SCENARIO_KINDS, record_to_dict

    if not isinstance(record, Mapping):
        record = record_to_dict(record)
    kind = record["kind"]
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"cannot render unknown scenario kind {kind!r}")
    return SCENARIO_KINDS[kind].renderer(record["results"])


def format_budget_curve(results) -> str:
    """Render the attack_budget_curve payload: queries vs success per mode."""
    lines = [f"Attack budget curve — {results.get('attack', '?')}"]
    for setting, modes in results.get("settings", {}).items():
        reduction = modes.get("query_reduction", 0.0)
        lines.append(f"  [{setting}] active-set query reduction: {reduction * 100:.1f}%")
        for mode in ("fixed", "active"):
            entry = modes.get(mode)
            if not entry:
                continue
            lines.append(
                f"    {mode:<6} {entry['sample_queries']:>6} sample queries "
                f"({entry['gradient_calls']} calls)  success={entry['success_rate'] * 100:5.1f}%"
            )
            for point in entry["curve"]:
                lines.append(
                    f"      step {point['iteration']:>2}: "
                    f"queries={point['sample_queries']:>6}  "
                    f"active={point['active']:>4}  "
                    f"success={point['success_rate'] * 100:5.1f}%"
                )
    return "\n".join(lines)


def format_serving_tail_latency(results) -> str:
    """Render the gateway tail-latency sweep: percentiles vs offered load."""
    lines = [
        f"Serving tail latency — {results.get('model', '?')} "
        f"(capacity {results.get('capacity_rps', 0.0):.0f} req/s, "
        f"SLO {results.get('slo_us', 0.0) / 1000.0:.1f} ms, "
        f"{results.get('num_sessions', 0):,} sealed sessions, "
        f"{results.get('requests_per_load', 0):,} requests/point)"
    ]
    for row in results.get("sweep", []):
        lines.append(f"  offered load {row['load']:.2f}x ({row['offered_rps']:.0f} req/s)")
        for policy in results.get("policies", ("continuous", "static")):
            entry = row.get(policy)
            if not entry:
                continue
            lines.append(
                f"    {policy:<11} p50={entry['p50_us'] / 1000.0:7.2f}ms "
                f"p99={entry['p99_us'] / 1000.0:7.2f}ms "
                f"p999={entry['p999_us'] / 1000.0:8.2f}ms  "
                f"goodput={entry['goodput_rps']:7.1f} req/s  "
                f"SLO={entry['slo_attainment'] * 100:5.1f}%  "
                f"shed={entry['shed_rate'] * 100:4.1f}%"
            )
    gate = results.get("gate", {})
    if gate:
        verdict = "PASS" if gate.get("passed") else "FAIL"
        lines.append(
            f"  gate [{verdict}]: SLO attainment {gate.get('attainment', 0.0) * 100:.1f}% "
            f">= {gate.get('min_attainment', 0.0) * 100:.0f}% at {gate.get('load', 0.0):.2f}x load; "
            f"continuous p99 beats static at top load: {gate.get('continuous_p99_beats_static')}"
        )
    return "\n".join(lines)


def format_robustness_curve(results) -> str:
    """Render the robustness_curve payload: success / robust accuracy vs ε."""
    lines = ["Robustness curve (attack success and robust accuracy vs ε)"]
    for row in results:
        lines.append(
            f"  ε={row['epsilon']:.3f} [{row['attack']}]  "
            f"success: clear={row['success_unshielded'] * 100:5.1f}% "
            f"shielded={row['success_shielded'] * 100:5.1f}%  |  "
            f"robust acc: clear={row['robust_unshielded'] * 100:5.1f}% "
            f"shielded={row['robust_shielded'] * 100:5.1f}%"
        )
    return "\n".join(lines)
