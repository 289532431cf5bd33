"""Tests of captured-graph execution (record once, replay with reused buffers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    GraphCaptureError,
    GraphRecording,
    Tensor,
    TraceHandles,
    no_grad,
    resolve_execution_backend,
)
from repro.autodiff import functional as F
from repro.autodiff import ops


def _mlp_trace(weights, labels):
    """A trace closure building a small MLP + objective graph."""
    w1, w2 = weights

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        hidden = F.gelu(x @ w1)
        logits = hidden @ w2
        objective = F.cross_entropy(logits, labels, reduction="sum") + F.margin_loss(
            logits, labels, confidence=2.0
        )
        return TraceHandles(objective=objective, input=x)

    return trace


@pytest.fixture()
def mlp():
    rng = np.random.default_rng(7)
    w1 = Tensor(rng.normal(size=(6, 8)), requires_grad=True, is_parameter=True)
    w2 = Tensor(rng.normal(size=(8, 3)), requires_grad=True, is_parameter=True)
    labels = np.array([0, 2, 1, 0])
    return _mlp_trace((w1, w2), labels), rng


class TestGraphRecording:
    def test_replay_gradients_are_bit_identical_to_eager(self, mlp):
        trace, rng = mlp
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(4, 6))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="mlp").input.grad)
            np.testing.assert_array_equal(expected, actual, err_msg=f"trial {trial}")
        # Lazy recording: query 1 runs eagerly, query 2 records, 3-4 replay.
        assert captured.stats.records == 1
        assert captured.stats.replays == 2

    def test_replay_objective_value_matches_eager(self, mlp):
        trace, rng = mlp
        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(3):
            batch = rng.normal(size=(4, 6))
            expected = eager.run(trace, batch).objective.data
            actual = captured.run(trace, batch, key="mlp").objective.data
            np.testing.assert_array_equal(expected, actual)

    def test_shape_mismatch_is_rejected(self, mlp):
        trace, rng = mlp
        handles = EagerExecution().run(trace, rng.normal(size=(4, 6)))
        recording = GraphRecording(handles)
        with pytest.raises(GraphCaptureError):
            recording.replay(rng.normal(size=(2, 6)))

    def test_rebinds_reapplied_after_replay(self, mlp):
        trace, rng = mlp

        class Holder:
            attr = None

        holder = Holder()

        def trace_with_rebind(array):
            handles = trace(array)
            handles.rebinds.append((holder, "attr", "recorded"))
            return handles

        captured = CapturedExecution()
        captured.run(trace_with_rebind, rng.normal(size=(4, 6)), key="r")
        captured.run(trace_with_rebind, rng.normal(size=(4, 6)), key="r")  # records
        holder.attr = "clobbered"
        captured.run(trace_with_rebind, rng.normal(size=(4, 6)), key="r")  # replays
        assert holder.attr == "recorded"


def _shape_agnostic_trace():
    """A trace whose labels adapt to the incoming batch size."""
    rng = np.random.default_rng(9)
    weight = Tensor(rng.normal(size=(6, 3)), requires_grad=True, is_parameter=True)

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        logits = F.gelu(x @ weight)
        labels = np.zeros(len(array), dtype=np.int64)
        return TraceHandles(
            objective=F.cross_entropy(logits, labels, reduction="sum"), input=x
        )

    return trace


class TestCapturedExecutionCache:
    def test_different_shapes_record_separately(self):
        trace, rng = _shape_agnostic_trace(), np.random.default_rng(1)
        captured = CapturedExecution()
        for shape in ((4, 6), (4, 6), (2, 6), (2, 6), (4, 6)):
            captured.run(trace, rng.normal(size=shape), key="k")
        # Each shape: first query eager, second records; the fifth replays.
        assert captured.stats.records == 2
        assert captured.stats.replays == 1

    def test_lru_eviction_bounds_recordings(self):
        trace, rng = _shape_agnostic_trace(), np.random.default_rng(1)
        captured = CapturedExecution(max_recordings=1)
        captured.run(trace, rng.normal(size=(4, 6)), key="k")
        captured.run(trace, rng.normal(size=(4, 6)), key="k")  # records (4, 6)
        captured.run(trace, rng.normal(size=(2, 6)), key="k")
        captured.run(trace, rng.normal(size=(2, 6)), key="k")  # evicts the first
        captured.run(trace, rng.normal(size=(4, 6)), key="k")  # records again
        assert captured.stats.records == 3
        assert captured.stats.replays == 0

    def test_unsupported_graph_falls_back_to_eager(self):
        rng = np.random.default_rng(3)
        generator = np.random.default_rng(0)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            dropped = F.dropout(x, rate=0.5, rng=generator, training=True)
            return TraceHandles(objective=dropped.sum(), input=x)

        captured = CapturedExecution()
        for _ in range(3):
            handles = captured.run(trace, rng.normal(size=(4, 4)), key="drop")
            assert handles.input.grad is not None
        # Query 1 is the lazy eager pass; 2 fails to record, 3 short-circuits.
        assert captured.stats.records == 0
        assert captured.stats.fallbacks == 2


class TestResolveExecutionBackend:
    def test_names_resolve(self):
        assert resolve_execution_backend("eager").name == "eager"
        assert resolve_execution_backend("captured").name == "captured"
        assert resolve_execution_backend(None).name == "eager"

    @pytest.mark.parametrize("backend", [EagerExecution, CapturedExecution])
    def test_instances_are_rejected(self, backend):
        with pytest.raises(ValueError):
            resolve_execution_backend(backend())

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_execution_backend("jit")


# --------------------------------------------------------------------------- #
# Forward-only capture: graphs traced under no_grad
# --------------------------------------------------------------------------- #
def _inference_trace(weights):
    """A forward-only trace: the logits are the objective, traced under no_grad."""
    w1, w2 = weights

    def trace(array: np.ndarray) -> TraceHandles:
        with no_grad():
            x = Tensor(array, is_input=True)
            logits = F.gelu(x @ w1) @ w2
        return TraceHandles(objective=logits, input=x)

    return trace


@pytest.fixture()
def inference_mlp():
    rng = np.random.default_rng(11)
    w1 = Tensor(rng.normal(size=(6, 8)), requires_grad=True, is_parameter=True)
    w2 = Tensor(rng.normal(size=(8, 3)), requires_grad=True, is_parameter=True)
    return (w1, w2), rng


class TestInferenceCapture:
    def test_replay_outputs_are_bit_identical_to_eager(self, inference_mlp):
        weights, rng = inference_mlp
        trace = _inference_trace(weights)
        captured = CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(4, 6))
            expected = np.array(trace(batch).objective.data)
            actual = np.array(captured.run(trace, batch, key="mlp").objective.data)
            np.testing.assert_array_equal(expected, actual, err_msg=f"trial {trial}")
        assert captured.stats.records == 1
        assert captured.stats.replays == 2

    def test_no_tape_is_built_under_no_grad(self, inference_mlp):
        weights, rng = inference_mlp
        handles = _inference_trace(weights)(rng.normal(size=(2, 6)))
        assert handles.objective.backward_fn is None
        assert not handles.objective.requires_grad
        # ... but the forward thunks are there, which is what replay needs.
        assert handles.objective.forward_fn is not None

    def test_replays_run_no_backward(self, inference_mlp):
        weights, rng = inference_mlp
        trace = _inference_trace(weights)
        captured = CapturedExecution()
        for _ in range(3):
            handles = captured.run(trace, rng.normal(size=(4, 6)), key="fwd")
        recording = next(iter(captured._recordings.values()))
        assert not recording.requires_grad
        assert handles.input.grad is None
        assert all(weight.grad is None for weight in weights)

    def test_shape_mismatch_is_rejected(self, inference_mlp):
        weights, rng = inference_mlp
        trace = _inference_trace(weights)
        recording = GraphRecording(trace(rng.normal(size=(4, 6))))
        with pytest.raises(GraphCaptureError, match="shape"):
            recording.replay(rng.normal(size=(5, 6)))

    def test_output_independent_of_the_input_is_rejected(self, inference_mlp):
        (w1, _), rng = inference_mlp

        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                out = w1.tanh()
            return TraceHandles(objective=out, input=x)

        with pytest.raises(GraphCaptureError, match="does not depend on the input"):
            GraphRecording(trace(rng.normal(size=(4, 6))))
        captured = CapturedExecution()
        for _ in range(3):
            captured.run(trace, rng.normal(size=(4, 6)), key="const")
        assert captured.stats.records == 0
        assert captured.stats.fallbacks == 2

    def test_lru_eviction_bounds_recordings(self, inference_mlp):
        weights, rng = inference_mlp
        trace = _inference_trace(weights)
        captured = CapturedExecution(max_recordings=2)
        for rows in (1, 2, 3, 1, 2, 3):  # 3 shapes, capacity 2
            captured.run(trace, rng.normal(size=(rows, 6)), key="lru")
            captured.run(trace, rng.normal(size=(rows, 6)), key="lru")
        assert len(captured._recordings) == 2

    def test_unsupported_graph_falls_back_to_eager(self):
        generator = np.random.default_rng(0)
        rng = np.random.default_rng(3)

        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                out = F.dropout(x, rate=0.5, rng=generator, training=True)
            return TraceHandles(objective=out, input=x)

        captured = CapturedExecution()
        for _ in range(3):
            handles = captured.run(trace, rng.normal(size=(4, 4)), key="drop")
            assert handles.objective.data.shape == (4, 4)
        assert captured.stats.records == 0
        assert captured.stats.fallbacks >= 1


class TestRecordingQueryInput:
    """A recording owns its input buffer: replays never write into the array
    the caller passed to the recording query."""

    @staticmethod
    def _check(trace, rng, shape):
        captured = CapturedExecution()
        captured.run(trace, rng.normal(size=shape), key="alias")
        recording_query = rng.normal(size=shape)
        kept = recording_query.copy()
        captured.run(trace, recording_query, key="alias")  # records
        for _ in range(2):
            captured.run(trace, rng.normal(size=shape), key="alias")
        assert captured.stats.records == 1 and captured.stats.replays == 2
        np.testing.assert_array_equal(recording_query, kept)

    def test_gradient_trace(self, mlp):
        trace, rng = mlp
        self._check(trace, rng, (4, 6))

    def test_forward_only_trace(self, inference_mlp):
        weights, rng = inference_mlp
        self._check(_inference_trace(weights), rng, (4, 6))


class TestRegistryNodes:
    """Every graph node comes from the op registry, so every replayed node
    reruns an :class:`~repro.autodiff.ops.OpCall` kernel."""

    @pytest.mark.parametrize("family", ["mlp", "cnn", "vit"])
    def test_every_model_node_carries_an_op_call(
        self, family, tiny_cnn_factory, tiny_vit_factory
    ):
        from repro.autodiff.tensor import topological_order
        from repro.models.simple import MLPClassifier

        rng = np.random.default_rng(5)
        if family == "mlp":
            model = MLPClassifier(input_dim=12, num_classes=3, hidden_dim=8)
            shape = (2, 12)
        else:
            model = tiny_cnn_factory() if family == "cnn" else tiny_vit_factory()
            shape = (2, 3, 16, 16)
        labels = np.array([0, 1])

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=F.cross_entropy(model(x), labels), input=x)

        handles = EagerExecution().run(trace, rng.normal(size=shape))
        derived = [node for node in topological_order(handles.objective) if node.parents]
        assert derived
        for node in derived:
            assert node._op_call is not None, node.op
            assert node._op_call.output is node
        recording = GraphRecording(handles)
        assert recording._steps
        assert all(step.call.op.name in ops.REGISTRY for step in recording._steps)
