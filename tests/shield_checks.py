"""Correctness checks on a PELTA shield report, shared by the tests.

These read a graph snapshot and the report Alg. 1 produced for it and say
whether the shield did its job: whether any clear jacobian still leaves an
input leaf, and which clear nodes expose the adjoint the attacker reads.
"""

from __future__ import annotations

from repro.autodiff.graph import GraphNode, GraphSnapshot
from repro.core.shielding import PeltaShieldReport


def chain_rule_is_broken(graph: GraphSnapshot, report: PeltaShieldReport) -> bool:
    """Check that the attacker cannot complete the chain rule to any input.

    The attacker needs, for every path from an input leaf to the output, every
    local jacobian along that path.  The defense succeeds if every edge
    leaving an input leaf towards a shielded region is masked — equivalently,
    if every child of every input whose value was shielded has its
    input-jacobian masked.  The function returns True when no clear jacobian
    edge leaves any input leaf towards the rest of the graph.
    """
    for input_node in graph.inputs():
        for child in graph.children(input_node.node_id):
            edge = (input_node.node_id, child.node_id)
            if edge not in report.shielded_jacobian_edges:
                return False
    return True


def clear_adjoint_candidates(
    graph: GraphSnapshot, report: PeltaShieldReport
) -> list[GraphNode]:
    """Nodes whose adjoint remains visible to the attacker (δ_{L+1} candidates).

    These are the *clear* transform nodes that directly consume a shielded
    value: their own gradient is computed in the normal world, so the
    attacker can read it, but the jacobians linking them back to the input
    are masked.
    """
    candidates: list[GraphNode] = []
    for node in graph.transforms():
        if node.node_id in report.shielded_value_ids:
            continue
        parent_ids = set(node.parent_ids)
        if parent_ids & report.shielded_value_ids:
            candidates.append(node)
    return candidates
