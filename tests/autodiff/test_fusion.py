"""Tests of the elementwise fusion pass in captured-graph replays.

A recording's replay plan groups consecutive elementwise registry ops into
:class:`~repro.autodiff.capture._FusedChain` steps that write each node's
buffer in place through the kernels' ``out=`` support — no temporaries, no
copy-backs.  The invariant under test: fused replays are bit-identical to
eager execution, for gradients and for forward-only inference, in both
default dtypes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    GraphRecording,
    Tensor,
    TraceHandles,
    no_grad,
)
from repro.autodiff import functional as F
from repro.autodiff.capture import _FusedChain, _ReplayNode


def _chain_trace(weights):
    """An MLP whose hot path is an elementwise chain (gelu -> tanh -> scale)."""
    w1, w2 = weights

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        hidden = F.gelu(x @ w1).tanh() * 2.0 + 0.5
        logits = F.sigmoid(hidden) @ w2
        labels = np.zeros(len(array), dtype=np.int64)
        return TraceHandles(
            objective=F.cross_entropy(logits, labels, reduction="sum"), input=x
        )

    return trace


@pytest.fixture()
def chain_mlp(rng):
    w1 = Tensor(rng.normal(size=(6, 8)), requires_grad=True, is_parameter=True)
    w2 = Tensor(rng.normal(size=(8, 3)), requires_grad=True, is_parameter=True)
    return _chain_trace((w1, w2)), rng


class TestGradientFusion:
    def test_chains_are_fused(self, chain_mlp):
        trace, rng = chain_mlp
        recording = GraphRecording(EagerExecution().run(trace, rng.normal(size=(4, 6))))
        assert recording.fused_chains >= 1
        assert recording.fused_ops >= 4  # gelu, tanh, mul, add, sigmoid
        kinds = [type(step) for step in recording._plan]
        assert _FusedChain in kinds and _ReplayNode in kinds

    def test_fused_replay_gradients_bit_identical_to_eager(self, chain_mlp):
        trace, rng = chain_mlp
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(5):
            batch = rng.normal(size=(4, 6))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="chain").input.grad)
            np.testing.assert_array_equal(expected, actual, err_msg=f"trial {trial}")
        assert captured.stats.replays == 3
        recording = next(iter(captured._recordings.values()))
        assert recording.fused_chains >= 1

    def test_fused_replay_objective_bit_identical(self, chain_mlp):
        trace, rng = chain_mlp
        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(3):
            batch = rng.normal(size=(4, 6))
            expected = np.array(eager.run(trace, batch).objective.data)
            actual = np.array(captured.run(trace, batch, key="chain").objective.data)
            np.testing.assert_array_equal(expected, actual)

    def test_broadcast_binary_ops_fuse_correctly(self, rng):
        bias = Tensor(rng.normal(size=(1, 8)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=((x + bias).tanh() * x).sum(), input=x)

        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(4):
            batch = rng.normal(size=(4, 8))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="b").input.grad)
            np.testing.assert_array_equal(expected, actual)
        recording = next(iter(captured._recordings.values()))
        assert recording.fused_ops >= 3

    def test_dtype_mismatched_nodes_stay_unfused_but_replay(self, rng):
        """A node whose buffer dtype differs from its compute dtype must not
        run through ``out=`` (that would change the rounding); it falls back
        to the thunk-then-copy path inside the same plan."""
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True, is_parameter=True)
        w.data = w.data.astype(np.float32)  # externally-loaded f32 weights

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=(x @ w).exp().sum(), input=x)

        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(4):
            batch = rng.normal(size=(2, 4))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="mix").input.grad)
            np.testing.assert_array_equal(expected, actual)
        recording = next(iter(captured._recordings.values()))
        # The exp node computes in f32 (its operand dtype) but holds an f64
        # buffer, so the fusion eligibility check must reject it.
        assert recording.fused_chains == 0


class TestInferenceFusion:
    def test_forward_only_replay_fuses_and_matches(self, rng):
        w1 = Tensor(rng.normal(size=(6, 8)), requires_grad=True, is_parameter=True)
        w2 = Tensor(rng.normal(size=(8, 3)), requires_grad=True, is_parameter=True)

        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                out = F.sigmoid(F.gelu(x @ w1).tanh() * 0.5) @ w2
            return TraceHandles(objective=out, input=x)

        captured = CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(4, 6))
            expected = np.array(trace(batch).objective.data)
            actual = np.array(captured.run(trace, batch, key="inf").objective.data)
            np.testing.assert_array_equal(expected, actual, err_msg=f"trial {trial}")
        recording = next(iter(captured._recordings.values()))
        assert recording.fused_chains >= 1
        assert recording.replays == 2

    def test_fused_plan_preserves_node_count(self, rng):
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True, is_parameter=True)

        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                out = (x @ w).exp().tanh().sqrt()
            return TraceHandles(objective=out, input=x)

        recording = GraphRecording(trace(np.abs(rng.normal(size=(2, 4)))))
        # The plan replays every input-dependent node, fused or not.
        replayed = sum(
            len(step) if isinstance(step, _FusedChain) else 1 for step in recording._plan
        )
        assert replayed == 4  # matmul + exp + tanh + sqrt
        assert recording.fused_ops == 3


_BRANCH_SCALES = (1.0, 1.25, 1.5, 1.75)


class TestRecordedOrderFusion:
    """Fusion groups consecutive fusable nodes in recorded order, even across
    independent branches; every kernel still writes its own node's buffer."""

    def test_independent_branches_fuse_into_one_chain(self, rng):
        w = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)

        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                branches = [((x * s).tanh().exp() + 1.0).sqrt() for s in _BRANCH_SCALES]
                merged = branches[0]
                for branch in branches[1:]:
                    merged = merged + branch
                out = merged @ w
            return TraceHandles(objective=out, input=x)

        captured = CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(8, 16))
            expected = trace(batch).objective.data.copy()
            actual = captured.run(trace, batch, key="wide").objective.data
            assert expected.tobytes() == actual.tobytes(), f"trial {trial}"
        recording = next(iter(captured._recordings.values()))
        kinds = [type(step) for step in recording._plan]
        assert kinds == [_FusedChain, _ReplayNode]  # all branches, then matmul
        assert recording.fused_ops == 5 * len(_BRANCH_SCALES) + len(_BRANCH_SCALES) - 1

    def test_branch_gradients_bit_identical_to_eager(self, rng):
        w = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            branches = [F.sigmoid((x * s).tanh() + 0.5) for s in _BRANCH_SCALES]
            merged = branches[0]
            for branch in branches[1:]:
                merged = merged + branch
            return TraceHandles(objective=(merged @ w).sum(), input=x)

        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(8, 16))
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="wide")
            assert np.array(expected.input.grad).tobytes() == np.array(
                actual.input.grad
            ).tobytes(), f"trial {trial}"
            assert expected.objective.data.tobytes() == actual.objective.data.tobytes()
        assert captured.stats.replays == 2
