"""Tests of the serial replay.

A recording replays one step per input-dependent node, in recorded order:
each step reruns its node's kernel, through ``out=`` into the node's buffer
when every operand has the buffer's dtype, otherwise into a fresh array that
is copied in.  Replays run on the calling thread.  The invariants under
test: **replays of graphs of any width are byte-identical to eager
execution**, nodes that do not depend on the input keep their recorded
value, and no replay hands work to another thread.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    GraphRecording,
    Op,
    Tensor,
    TraceHandles,
    get_default_dtype,
    no_grad,
    profile_ops,
)
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff.conv import conv2d


def _branch_scales(branches: int) -> tuple[float, ...]:
    return tuple(float(scale) for scale in np.linspace(1.0, 1.75, branches))


def _wide_grad_trace(weight, branches: int = 4):
    """``branches`` independent elementwise branches merged into one objective."""
    scales = _branch_scales(branches)

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        parts = [F.sigmoid((x * scale).tanh() + 0.5) for scale in scales]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged + part
        return TraceHandles(objective=(merged @ weight).sum(), input=x)

    return trace


def _wide_inference_trace(weight, branches: int = 4):
    scales = _branch_scales(branches)

    def trace(array: np.ndarray) -> TraceHandles:
        with no_grad():
            x = Tensor(array, is_input=True)
            parts = [((x * scale).tanh().exp() + 1.0).sqrt() for scale in scales]
            merged = parts[0]
            for part in parts[1:]:
                merged = merged + part
            out = merged @ weight
        return TraceHandles(objective=out, input=x)

    return trace


@pytest.fixture
def registered_op():
    """Register test-only ops for one test and drop them afterwards."""
    names: list[str] = []

    def register(op: Op) -> Op:
        op_registry.register(op)
        names.append(op.name)
        return op

    yield register
    for name in names:
        op_registry.REGISTRY.pop(name, None)


@pytest.mark.parametrize("branches", [1, 2, 8])
class TestBitIdentity:
    """Replays of graphs of any width match eager byte for byte."""

    def test_gradient_replay(self, rng, branches):
        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        trace = _wide_grad_trace(weight, branches)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(8, 16))
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="wide")
            np.testing.assert_array_equal(
                np.array(expected.input.grad),
                np.array(actual.input.grad),
                err_msg=f"branches={branches} trial={trial}",
            )
            assert expected.objective.data.tobytes() == actual.objective.data.tobytes()
        assert captured.stats.replays == 2  # run 1 is eager warm-up, run 2 records

    def test_inference_replay(self, rng, branches):
        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        trace = _wide_inference_trace(weight, branches)
        captured = CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(8, 16))
            expected = trace(batch).objective.data.copy()
            actual = captured.run(trace, batch, key="wide-inf").objective.data
            assert expected.tobytes() == actual.tobytes(), (
                f"branches={branches} trial={trial}"
            )
        recording = next(iter(captured._recordings.values()))
        assert recording.replays == 2

    def test_eager_fallback_path(self, rng, branches):
        """Graphs with non-replayable ops fall back to eager at any width."""
        drop_rng = np.random.default_rng(3)
        scales = _branch_scales(branches)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            parts = [F.dropout((x * s).tanh(), rate=0.5, rng=drop_rng) for s in scales]
            merged = parts[0]
            for part in parts[1:]:
                merged = merged + part
            return TraceHandles(objective=merged.sum(), input=x)

        captured = CapturedExecution()
        for _ in range(3):
            handles = captured.run(trace, rng.normal(size=(4, 8)), key="drop")
            assert handles.input.grad is not None
        assert captured.stats.fallbacks >= 1
        assert captured.stats.replays == 0


def _chain_trace(w1, w2):
    """An MLP whose hot path is an elementwise chain (gelu -> tanh -> scale)."""

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        hidden = F.gelu(x @ w1).tanh() * 2.0 + 0.5
        logits = F.sigmoid(hidden) @ w2
        labels = np.zeros(len(array), dtype=np.int64)
        return TraceHandles(
            objective=F.cross_entropy(logits, labels, reduction="sum"), input=x
        )

    return trace


class TestChainReplay:
    """Elementwise chains between matmuls replay byte-identically."""

    @pytest.fixture()
    def weights(self, rng):
        w1 = Tensor(rng.normal(size=(6, 8)), requires_grad=True, is_parameter=True)
        w2 = Tensor(rng.normal(size=(8, 3)), requires_grad=True, is_parameter=True)
        return w1, w2

    def test_chain_gradients_bit_identical_to_eager(self, rng, weights):
        trace = _chain_trace(*weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(5):
            batch = rng.normal(size=(4, 6))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="chain").input.grad)
            assert expected.tobytes() == actual.tobytes(), f"trial {trial}"
        assert captured.stats.replays == 3

    def test_chain_objective_bit_identical(self, rng, weights):
        trace = _chain_trace(*weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(3):
            batch = rng.normal(size=(4, 6))
            expected = np.array(eager.run(trace, batch).objective.data)
            actual = np.array(captured.run(trace, batch, key="chain").objective.data)
            assert expected.tobytes() == actual.tobytes()

    def test_broadcast_binary_gradients_bit_identical(self, rng):
        bias = Tensor(rng.normal(size=(1, 8)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=((x + bias).tanh() * x).sum(), input=x)

        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(4):
            batch = rng.normal(size=(4, 8))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="b").input.grad)
            assert expected.tobytes() == actual.tobytes()

    def test_forward_only_chain_bit_identical(self, rng, weights):
        w1, w2 = weights

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
            assert expected.tobytes() == actual.tobytes(), f"trial {trial}"
        recording = next(iter(captured._recordings.values()))
        assert recording.replays == 2


class TestRecordedOrderPlan:
    def test_steps_respect_dependencies(self, rng):
        """Every replayed node's replayed producers run in an earlier step."""
        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        recording = GraphRecording(_wide_inference_trace(weight, 8)(rng.normal(size=(8, 16))))
        replayed = {step.node.node_id for step in recording._steps}
        done: set[int] = set()
        for step in recording._steps:
            for parent in step.node.parents:
                if parent.node_id in replayed:
                    assert parent.node_id in done, f"{step.node.op} ran before {parent.op}"
            done.add(step.node.node_id)
        assert done == replayed

    def test_sequential_graph_keeps_recorded_order(self, rng):
        weight = Tensor(rng.normal(size=(6, 3)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=F.gelu(x @ weight).sum(), input=x)

        recording = GraphRecording(EagerExecution().run(trace, rng.normal(size=(4, 6))))
        assert [step.call.op.name for step in recording._steps] == ["matmul", "gelu", "sum"]

    def test_kernel_ignoring_out_is_copied_in(self, rng, registered_op):
        """A kernel that returns a fresh array instead of writing ``out=``
        between elementwise nodes still replays byte-identically."""
        registered_op(
            Op(
                "test_row_flip",
                lambda inputs, params, saved, out: np.flip(inputs[0], axis=0).copy(),
                lambda ctx, grad: (np.flip(grad, axis=0) if ctx.needs[0] else None,),
                gradcheck_skip="test-only op, unregistered after the test",
            )
        )

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            flipped = op_registry.apply("test_row_flip", [(x * 2.0).tanh()])
            return TraceHandles(objective=(flipped.exp() + 1.0).sum(), input=x)

        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(4):
            batch = rng.normal(size=(5, 3))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="flip").input.grad)
            assert expected.tobytes() == actual.tobytes()
        assert captured.stats.replays == 2

    def test_mixed_dtype_node_reruns_and_is_copied_in(self, rng):
        """A node whose operands differ in dtype from its buffer computed in
        another dtype, so its kernel reruns without ``out=`` (writing through
        it would change the rounding); the replay stays bit-identical."""
        other = np.float32 if get_default_dtype() == np.float64 else np.float64
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True, is_parameter=True)
        w.data = w.data.astype(other)  # externally loaded weights

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=(x @ w).exp().sum(), input=x)

        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(4):
            batch = rng.normal(size=(2, 4))
            expected = np.array(eager.run(trace, batch).input.grad)
            actual = np.array(captured.run(trace, batch, key="mix").input.grad)
            assert expected.tobytes() == actual.tobytes()
        recording = next(iter(captured._recordings.values()))
        assert [step.out is None for step in recording._steps] == [True, False, False]

    def test_input_independent_nodes_are_not_replayed(self, rng):
        """Nodes that depend on parameters alone keep their recorded value."""
        weight = Tensor(rng.normal(size=(4, 4)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            scaled = (weight * 0.5).tanh()
            return TraceHandles(objective=(x @ scaled).sum(), input=x)

        recording = GraphRecording(EagerExecution().run(trace, rng.normal(size=(2, 4))))
        ops = [step.node.op for step in recording._steps]
        assert ops == ["matmul", "sum"]
        assert len(recording) > len(ops)


def _saved_free_chain_trace(array):
    with no_grad():
        x = Tensor(array, is_input=True)
        out = ((x * 2.0 + 0.5).tanh().exp() + 1.0).sqrt()
    return TraceHandles(objective=out, input=x)


class TestLargeChains:
    def test_large_chain_steps_write_in_place(self, rng):
        """Same-dtype elementwise steps write through ``out=`` into their buffers."""
        recording = GraphRecording(_saved_free_chain_trace(rng.normal(size=(256, 256))))
        steps = recording._steps
        assert [step.call.op.name for step in steps] == ["mul", "add", "tanh", "exp", "add", "sqrt"]
        assert all(step.out is step.node.data for step in steps)
        batch = rng.normal(size=(256, 256))
        replayed = recording.replay(batch).objective.data
        # ``needs_copy`` stays None only while every kernel returns its buffer.
        assert all(step.needs_copy is None for step in steps)
        assert replayed.tobytes() == _saved_free_chain_trace(batch).objective.data.tobytes()

    def test_large_chain_replay_bit_identical(self, rng):
        recording = GraphRecording(_saved_free_chain_trace(rng.normal(size=(256, 256))))
        for _ in range(2):
            batch = rng.normal(size=(256, 256))
            replayed = recording.replay(batch).objective.data
            assert replayed.tobytes() == _saved_free_chain_trace(batch).objective.data.tobytes()

    def test_broadcast_operands_replay_bit_identical(self, rng):
        """Size-1 and lower-rank operands broadcast inside in-place kernels."""
        bias_row = Tensor(rng.normal(size=(1, 128)))
        bias_vec = Tensor(rng.normal(size=(128,)))

        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                out = ((x + bias_row) * 0.5 + bias_vec).tanh()
            return TraceHandles(objective=out, input=x)

        recording = GraphRecording(trace(rng.normal(size=(512, 128))))
        batch = rng.normal(size=(512, 128))
        replayed = recording.replay(batch).objective.data
        assert replayed.tobytes() == trace(batch).objective.data.tobytes()

    def test_gelu_chain_refreshes_saved_buffers(self, rng):
        """GELU refreshes record-time saved buffers in place on every replay."""

        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                out = F.gelu(x * 2.0)
            return TraceHandles(objective=out, input=x)

        recording = GraphRecording(trace(rng.normal(size=(64, 64))))
        for _ in range(3):
            batch = rng.normal(size=(64, 64))
            replayed = recording.replay(batch).objective.data
            assert replayed.tobytes() == trace(batch).objective.data.tobytes()


class TestReplayProfiler:
    def test_serial_replays_keep_the_classic_row(self, rng):
        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        trace = _wide_grad_trace(weight)
        captured = CapturedExecution()
        with profile_ops() as profiler:
            for _ in range(3):
                captured.run(trace, rng.normal(size=(8, 16)), key="prof")
        stats = profiler.as_dict()
        assert stats["captured_replay"]["calls"] == 1
        assert "captured_replay_parallel" not in stats

    def test_banded_replays_record_no_scheduling_rows(self, rng, monkeypatch):
        """Banded kernels report under their own op row and nothing else."""
        monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", 1)
        weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=conv2d(x, weight, padding=1).sum(), input=x)

        captured = CapturedExecution()
        with profile_ops() as profiler:
            for _ in range(3):
                captured.run(trace, rng.normal(size=(4, 3, 8, 8)), key="banded-prof")
        stats = profiler.as_dict()
        assert stats["captured_replay"]["calls"] == 1
        assert stats["conv2d"]["calls"] == 2
        assert not [
            row for row in stats if row.endswith(("_parallel", "_sharded", "_treereduce"))
        ]


class TestCallingThread:
    def test_replay_kernels_run_on_the_calling_thread(self, rng, registered_op):
        seen: list[int] = []

        def forward(inputs, params, saved, out):
            seen.append(threading.get_ident())
            return inputs[0].copy()

        registered_op(
            Op(
                "test_thread_probe",
                forward,
                lambda ctx, grad: (grad if ctx.needs[0] else None,),
                gradcheck_skip="test-only op, unregistered after the test",
            )
        )

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            parts = [op_registry.apply("test_thread_probe", [x * s]) for s in _branch_scales(8)]
            merged = parts[0]
            for part in parts[1:]:
                merged = merged + part
            return TraceHandles(objective=merged.sum(), input=x)

        captured = CapturedExecution()
        for _ in range(2):  # eager warm-up, then record
            captured.run(trace, rng.normal(size=(4, 4)), key="probe")

        def replay_from_here():
            seen.clear()
            captured.run(trace, rng.normal(size=(4, 4)), key="probe")
            assert len(seen) == 8
            assert set(seen) == {threading.get_ident()}

        replay_from_here()
        failures: list[BaseException] = []

        def worker():
            try:
                replay_from_here()
            except BaseException as error:  # surfaced on the main thread
                failures.append(error)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not failures, failures
        assert captured.stats.replays == 2

    def test_per_thread_recordings_replay_bit_identical(self, rng):
        """Each thread owns its recording; concurrent replays match eager.
        The weight needs no gradient, so the threads share no mutable node."""
        weight = Tensor(rng.normal(size=(16, 4)))
        trace = _wide_grad_trace(weight)
        batches = [rng.normal(size=(8, 16)) for _ in range(4)]
        eager = EagerExecution()
        expected = [np.array(eager.run(trace, batch).input.grad).tobytes() for batch in batches]
        results: dict[int, list[bytes]] = {}

        def worker(slot: int):
            captured = CapturedExecution()
            results[slot] = [
                np.array(captured.run(trace, batch, key="wide").input.grad).tobytes()
                for batch in batches
            ]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {0: expected, 1: expected}
