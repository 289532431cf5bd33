"""PELTA shielding — Algorithm 1 of the paper, over a computational graph.

Given the computational graph ``G`` of a model and a selection of "deepest"
nodes (the shield frontier chosen by the defender), the algorithm walks from
the selected nodes back towards the input leaves and places inside the
enclave:

* the forward values ``u_i`` of every visited node (Alg. 1 line 4), and
* every *local jacobian* ``J_{j->i}`` between a visited node and a parent that
  is connected to a model input (Alg. 1 lines 7-9) — jacobians towards pure
  parameter parents need not be hidden, because parameters are not what the
  evasion attacker treats as trainable.

The result is the masked set ``{∂f/∂x}_L`` of the paper: the attacker can no
longer complete the chain rule from the loss back to the input and is left
with only the adjoint of the shallowest clear layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.autodiff.graph import GraphNode, GraphSnapshot
from repro.tee.enclave import Enclave


@dataclass
class PeltaShieldReport:
    """Outcome of running Alg. 1 on a graph snapshot."""

    #: Node ids whose forward value u_i is masked (stored in the enclave).
    shielded_value_ids: frozenset[int]
    #: Directed edges ``(parent_id, child_id)`` whose local jacobian is masked.
    shielded_jacobian_edges: frozenset[tuple[int, int]]
    #: The frontier nodes chosen by the Select step.
    selected_ids: tuple[int, ...]
    #: Ids of the input leaves of the graph.
    input_ids: frozenset[int]
    #: Bytes of the masked forward values (single copy, no gradients).
    value_bytes: int = 0
    #: Bytes of the masked values plus one gradient copy each (worst case).
    worst_case_bytes: int = 0

    def is_value_shielded(self, node_id: int) -> bool:
        return node_id in self.shielded_value_ids

    def is_jacobian_shielded(self, parent_id: int, child_id: int) -> bool:
        return (parent_id, child_id) in self.shielded_jacobian_edges


def input_connected_ids(graph: GraphSnapshot) -> set[int]:
    """Ids of every node that is an input leaf or has one as an ancestor."""
    connected: set[int] = set()
    for input_node in graph.inputs():
        connected.add(input_node.node_id)
        connected |= graph.descendants(input_node.node_id)
    return connected


def pelta_shield(
    graph: GraphSnapshot,
    selected: Sequence[int] | Sequence[GraphNode],
    enclave: Enclave | None = None,
    seal_values: bool = False,
) -> PeltaShieldReport:
    """Run PELTA's Alg. 1 over ``graph`` starting from the ``selected`` nodes.

    Parameters
    ----------
    graph:
        Snapshot of the model's computational graph (one forward pass).
    selected:
        The deepest nodes to shield, as chosen by a Select strategy
        (:mod:`repro.core.selection`).  Must be transform nodes that come
        after every input leaf, as required by the paper (``i > l``).
    enclave:
        Optional enclave used to account (and optionally seal) the masked
        values.
    seal_values:
        When true and ``enclave`` is given, the forward values of the masked
        nodes are copied into the enclave's sealed storage.
    """
    selected_ids = tuple(
        node.node_id if isinstance(node, GraphNode) else int(node) for node in selected
    )
    input_ids = frozenset(node.node_id for node in graph.inputs())
    for node_id in selected_ids:
        if node_id not in graph:
            raise KeyError(f"selected node {node_id} is not part of the graph")
        if graph.node(node_id).is_leaf and not graph.node(node_id).is_input:
            raise ValueError(
                "selected nodes must be transforms or inputs, not parameter leaves"
            )
        if node_id in input_ids:
            raise ValueError("the Select step must choose nodes deeper than the input leaves")

    connected = input_connected_ids(graph)
    shielded_values: set[int] = set()
    shielded_edges: set[tuple[int, int]] = set()

    # Iterative version of the recursive Shield() procedure of Alg. 1.
    stack: list[int] = list(selected_ids)
    while stack:
        node_id = stack.pop()
        if node_id in shielded_values:
            continue
        shielded_values.add(node_id)  # Alg. 1 line 4: E <- E + {u_i}
        for parent in graph.parents(node_id):
            # Alg. 1 line 7: only parents on the path towards the model input
            # carry sensitive local jacobians; parameter-only parents do not.
            if parent.node_id in connected:
                shielded_edges.add((parent.node_id, node_id))  # line 8-9: mask J_{j->i}
                stack.append(parent.node_id)  # line 10: Shield(u_j)

    value_bytes = sum(graph.node(node_id).nbytes for node_id in shielded_values)
    gradient_bytes = sum(
        graph.node(node_id).nbytes
        for node_id in shielded_values
        if graph.node(node_id).tensor.requires_grad
    )
    report = PeltaShieldReport(
        shielded_value_ids=frozenset(shielded_values),
        shielded_jacobian_edges=frozenset(shielded_edges),
        selected_ids=selected_ids,
        input_ids=input_ids,
        value_bytes=value_bytes,
        worst_case_bytes=value_bytes + gradient_bytes,
    )

    if enclave is not None:
        for node_id in sorted(shielded_values):
            node = graph.node(node_id)
            node.tensor.shielded = True
            if seal_values:
                enclave.seal(f"pelta.node{node_id}.{node.op}", node.tensor)
    return report

