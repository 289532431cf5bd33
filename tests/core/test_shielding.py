"""Tests for PELTA's Algorithm 1 (graph shielding) and its invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import GraphSnapshot, Tensor
from repro.autodiff.functional import relu
from repro.core.selection import (
    select_by_memory_budget,
    select_first_transforms,
    select_shield_tagged,
)
from repro.core.shielding import input_connected_ids, pelta_shield
from repro.tee import Enclave

from tests.shield_checks import chain_rule_is_broken, clear_adjoint_candidates


def _chain_graph(depth: int = 4, width: int = 3):
    """Input -> depth linear+relu transforms -> scalar loss."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, width)), requires_grad=True, is_input=True, name="input")
    hidden = x
    parameters = []
    for _ in range(depth):
        weight = Tensor(rng.normal(size=(width, width)), requires_grad=True, is_parameter=True)
        parameters.append(weight)
        hidden = relu(hidden @ weight)
    loss = hidden.sum()
    return x, parameters, loss


class TestAlgorithmOne:
    def test_selected_values_are_masked(self):
        x, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        selected = select_first_transforms(graph, depth=2)
        report = pelta_shield(graph, selected)
        for node in selected:
            assert report.is_value_shielded(node.node_id)

    def test_recursion_reaches_the_input_leaf(self):
        x, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_first_transforms(graph, depth=2))
        assert report.is_value_shielded(x.node_id)

    def test_input_jacobian_edges_are_masked(self):
        x, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_first_transforms(graph, depth=2))
        for child in graph.children(x.node_id):
            assert report.is_jacobian_shielded(x.node_id, child.node_id)

    def test_parameter_jacobians_are_not_required_to_be_masked(self):
        """Jacobians towards parameter-only parents need not be hidden (Alg. 1 line 7)."""
        x, parameters, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_first_transforms(graph, depth=1))
        first_weight = parameters[0]
        children = graph.children(first_weight.node_id)
        for child in children:
            assert (first_weight.node_id, child.node_id) not in report.shielded_jacobian_edges

    def test_chain_rule_is_broken_after_shielding(self):
        _, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_first_transforms(graph, depth=1))
        assert chain_rule_is_broken(graph, report)

    def test_chain_rule_not_broken_without_shielding(self):
        _, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        empty = pelta_shield(graph, [])
        assert not chain_rule_is_broken(graph, empty)

    def test_deeper_selection_masks_a_superset(self):
        _, _, loss = _chain_graph(depth=5)
        graph = GraphSnapshot(loss)
        shallow = pelta_shield(graph, select_first_transforms(graph, depth=1))
        deep = pelta_shield(graph, select_first_transforms(graph, depth=3))
        assert shallow.shielded_value_ids <= deep.shielded_value_ids
        assert shallow.shielded_jacobian_edges <= deep.shielded_jacobian_edges

    def test_selecting_a_parameter_leaf_is_rejected(self):
        _, parameters, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        with pytest.raises(ValueError):
            pelta_shield(graph, [parameters[0].node_id])

    def test_selecting_the_input_leaf_is_rejected(self):
        x, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        with pytest.raises(ValueError):
            pelta_shield(graph, [x.node_id])

    def test_unknown_node_is_rejected(self):
        _, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        with pytest.raises(KeyError):
            pelta_shield(graph, [10**9])

    def test_memory_accounting_is_positive_and_consistent(self):
        _, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_first_transforms(graph, depth=2))
        assert report.value_bytes > 0
        assert report.worst_case_bytes >= report.value_bytes

    def test_sealing_into_enclave(self):
        _, _, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        enclave = Enclave("test", memory_limit_bytes=10**7)
        report = pelta_shield(
            graph, select_first_transforms(graph, depth=1), enclave=enclave, seal_values=True
        )
        assert len(enclave.sealed_keys()) == len(report.shielded_value_ids)
        for node_id in report.shielded_value_ids:
            assert graph.node(node_id).tensor.shielded

    def test_clear_adjoint_candidates_border_the_shield(self):
        _, _, loss = _chain_graph(depth=4)
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_first_transforms(graph, depth=2))
        candidates = clear_adjoint_candidates(graph, report)
        assert candidates, "there must be at least one clear adjoint candidate"
        for node in candidates:
            assert node.node_id not in report.shielded_value_ids
            assert set(node.parent_ids) & report.shielded_value_ids

    def test_input_connected_ids(self):
        x, parameters, loss = _chain_graph()
        graph = GraphSnapshot(loss)
        connected = input_connected_ids(graph)
        assert x.node_id in connected
        assert loss.node_id in connected
        assert parameters[0].node_id not in connected


class TestSelectionStrategies:
    def test_select_first_transforms_depth_bound(self):
        _, _, loss = _chain_graph(depth=4)
        graph = GraphSnapshot(loss)
        depths = graph.depth_from_inputs()
        for node in select_first_transforms(graph, depth=2):
            assert 1 <= depths[node.node_id] <= 2

    def test_select_first_transforms_rejects_zero_depth(self):
        _, _, loss = _chain_graph()
        with pytest.raises(ValueError):
            select_first_transforms(GraphSnapshot(loss), depth=0)

    def test_select_shield_tagged_matches_scope(self):
        from repro.autodiff import shield_scope

        x = Tensor(np.ones((2, 3)), requires_grad=True, is_input=True)
        with shield_scope():
            hidden = relu(x * 2.0)
        loss = (hidden + 1.0).sum()
        graph = GraphSnapshot(loss)
        tagged_ids = {node.node_id for node in select_shield_tagged(graph)}
        assert hidden.node_id in tagged_ids
        assert loss.node_id not in tagged_ids

    def test_select_by_memory_budget_respects_budget(self):
        _, _, loss = _chain_graph(depth=5)
        graph = GraphSnapshot(loss)
        generous = select_by_memory_budget(graph, budget_bytes=10**9)
        tight = select_by_memory_budget(graph, budget_bytes=200)
        assert len(generous) >= len(tight)
        tight_bytes = sum(2 * node.nbytes for node in tight)
        assert tight_bytes <= 200 or len(tight) == 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_property_chain_rule_broken_for_any_depth(self, depth):
        """Whatever shield depth the defender selects, the attacker's chain rule breaks."""
        _, _, loss = _chain_graph(depth=5)
        graph = GraphSnapshot(loss)
        report = pelta_shield(graph, select_first_transforms(graph, depth=depth))
        assert chain_rule_is_broken(graph, report)
        # All shielded values are input-connected (never pure parameter subgraphs).
        connected = input_connected_ids(graph)
        assert report.shielded_value_ids <= connected
