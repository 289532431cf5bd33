"""Computational-graph inspection utilities.

PELTA (Alg. 1 in the paper) is defined over the computational graph
``G = <n, l, E, u_1..u_n, f_{l+1}..f_n>`` of a model.  The autodiff engine
records this graph implicitly through the ``parents`` links of every
:class:`~repro.autodiff.tensor.Tensor`; this module materialises it as an
explicit, immutable snapshot that the shielding algorithm can traverse and
that tests can assert properties on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.autodiff.tensor import Tensor, topological_order


def _node_cost(tensor: Tensor) -> tuple[int, int]:
    """Forward (flops, bytes moved) of one node, from its op-call metadata."""
    call = tensor._op_call
    if call is None:
        return 0, 0
    return call.op.cost_of(
        tuple(parent.shape for parent in tensor.parents),
        tensor.shape,
        call.params,
        tensor.dtype.itemsize,
    )


@dataclass
class GraphNode:
    """A vertex of the materialised computational graph."""

    node_id: int
    op: str
    shape: tuple[int, ...]
    parent_ids: tuple[int, ...]
    is_leaf: bool
    is_input: bool
    is_parameter: bool
    shielded: bool
    nbytes: int
    tensor: Tensor = field(repr=False)
    #: Whether the tensor was created inside a shield region (stable, unlike
    #: ``shielded`` which the partition clears on the frontier).
    created_shielded: bool = False
    #: Forward cost of producing this node, from the op registry's kernel
    #: metadata (zero for leaves).
    flops: int = 0
    bytes_moved: int = 0

    @property
    def is_transform(self) -> bool:
        """True when the node is the output of a differentiable transform."""
        return not self.is_leaf


class GraphSnapshot:
    """Immutable snapshot of the graph reachable from one output tensor."""

    def __init__(self, output: Tensor):
        self.output_id = output.node_id
        self._nodes: dict[int, GraphNode] = {}
        self._children: dict[int, list[int]] = {}
        self._order: list[int] = []
        for tensor in topological_order(output):
            flops, bytes_moved = _node_cost(tensor)
            node = GraphNode(
                node_id=tensor.node_id,
                op=tensor.op,
                shape=tensor.shape,
                parent_ids=tuple(p.node_id for p in tensor.parents),
                is_leaf=len(tensor.parents) == 0,
                is_input=tensor.is_input,
                is_parameter=tensor.is_parameter,
                shielded=tensor.shielded,
                nbytes=tensor.nbytes,
                tensor=tensor,
                created_shielded=getattr(tensor, "created_shielded", tensor.shielded),
                flops=flops,
                bytes_moved=bytes_moved,
            )
            self._nodes[node.node_id] = node
            self._order.append(node.node_id)
            for parent_id in node.parent_ids:
                self._children.setdefault(parent_id, []).append(node.node_id)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> GraphNode:
        """Return the node with the given id."""
        return self._nodes[node_id]

    def nodes(self) -> list[GraphNode]:
        """All nodes in topological order (ancestors before descendants)."""
        return [self._nodes[node_id] for node_id in self._order]

    def parents(self, node_id: int) -> list[GraphNode]:
        """Parent nodes (operands) of ``node_id``."""
        return [self._nodes[pid] for pid in self._nodes[node_id].parent_ids]

    def children(self, node_id: int) -> list[GraphNode]:
        """Child nodes (consumers) of ``node_id`` within the snapshot."""
        return [self._nodes[cid] for cid in self._children.get(node_id, [])]

    def leaves(self) -> list[GraphNode]:
        """All leaf nodes (inputs and parameters)."""
        return [node for node in self.nodes() if node.is_leaf]

    def inputs(self) -> list[GraphNode]:
        """Leaf nodes flagged as model inputs."""
        return [node for node in self.nodes() if node.is_input]

    def parameters(self) -> list[GraphNode]:
        """Leaf nodes flagged as trainable parameters."""
        return [node for node in self.nodes() if node.is_parameter]

    def transforms(self) -> list[GraphNode]:
        """Non-leaf nodes, i.e. the outputs of differentiable transforms."""
        return [node for node in self.nodes() if node.is_transform]

    # ------------------------------------------------------------------ #
    # Path queries used by the shielding algorithm and its tests
    # ------------------------------------------------------------------ #
    def ancestors(self, node_id: int) -> set[int]:
        """Ids of every ancestor (transitive parents) of ``node_id``."""
        seen: set[int] = set()
        stack = list(self._nodes[node_id].parent_ids)
        while stack:
            current = stack.pop()
            if current in seen or current not in self._nodes:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].parent_ids)
        return seen

    def descendants(self, node_id: int) -> set[int]:
        """Ids of every descendant (transitive children) of ``node_id``."""
        seen: set[int] = set()
        stack = list(self._children.get(node_id, []))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._children.get(current, []))
        return seen

    def depth_from_inputs(self) -> dict[int, int]:
        """Number of transform hops separating each node from the input leaves.

        Input leaves have depth 0; a node's depth is 1 + the maximum depth of
        its parents that are connected to an input.  Nodes not reachable from
        any input (e.g. pure parameter subgraphs) are omitted.
        """
        depths: dict[int, int] = {}
        for node in self.nodes():
            if node.is_input:
                depths[node.node_id] = 0
                continue
            parent_depths = [depths[p] for p in node.parent_ids if p in depths]
            if parent_depths:
                depths[node.node_id] = 1 + max(parent_depths)
        return depths

    def shielded_ids(self) -> set[int]:
        """Ids of every node currently flagged as shielded."""
        return {node.node_id for node in self.nodes() if node.shielded}

    # ------------------------------------------------------------------ #
    # Cost accounting from op-registry metadata
    # ------------------------------------------------------------------ #
    def total_flops(self) -> int:
        """Forward FLOPs of the whole graph, from the kernels' cost rules."""
        return sum(node.flops for node in self.nodes())

    def op_costs(self) -> dict[str, dict[str, int]]:
        """Per-op totals (count, flops, bytes moved) over the snapshot."""
        totals: dict[str, dict[str, int]] = {}
        for node in self.transforms():
            entry = totals.setdefault(
                node.op, {"count": 0, "flops": 0, "bytes_moved": 0}
            )
            entry["count"] += 1
            entry["flops"] += node.flops
            entry["bytes_moved"] += node.bytes_moved
        return totals
