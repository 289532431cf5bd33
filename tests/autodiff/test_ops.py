"""Tests of the declarative op registry and per-op profiler."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    active_profiler,
    profile_ops,
    registered_ops,
)
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry

#: Every op name the engine's dispatchers emit; keeps the registry honest
#: about coverage (a Tensor method dispatching an unregistered name raises).
EXPECTED_OPS = {
    "add", "sub", "mul", "div", "neg", "pow", "matmul",
    "exp", "log", "sqrt", "tanh", "abs", "maximum", "minimum",
    "sum", "mean", "max",
    "reshape", "transpose", "getitem", "pad", "concat", "stack",
    "relu", "sigmoid", "gelu", "softmax", "log_softmax",
    "nll_loss", "margin_loss", "dropout",
    "conv2d",
}


class TestRegistry:
    def test_expected_ops_are_registered(self):
        assert set(registered_ops()) == EXPECTED_OPS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            op_registry.register(op_registry.get("add"))

    def test_unknown_op_lookup_raises(self):
        with pytest.raises(KeyError, match="unknown op"):
            op_registry.get("fused_multiply_add")

    def test_dropout_is_not_replayable(self):
        assert not op_registry.get("dropout").replayable
        out = F.dropout(
            Tensor(np.ones((2, 2)), requires_grad=True),
            rate=0.5,
            rng=np.random.default_rng(0),
            training=True,
        )
        assert out.forward_fn is None


#: Kernels that honour ``out=`` by writing the buffer they are given.
_WRITES_OUT = frozenset(
    "add sub mul div neg pow exp log sqrt tanh abs maximum minimum relu sigmoid gelu matmul".split()
)


class TestDispatch:
    def test_node_metadata(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = a.exp()
        assert out.op == "exp"
        assert out.parents == (a,)
        assert out._op_call is not None
        assert out._op_call.op.name == "exp"
        assert out.forward_fn is not None

    def test_scalar_operands_are_coerced_to_leaf_tensors(self):
        out = Tensor(np.ones(3)) + 2.0
        assert len(out.parents) == 2
        assert out.parents[1].op == "leaf"
        np.testing.assert_array_equal(out.parents[1].data, 2.0)

    @pytest.mark.parametrize("band_flops", [None, 1], ids=["default_floor", "banded_conv"])
    def test_out_kernels_are_bit_identical(self, rng, monkeypatch, band_flops):
        """Every replayable kernel gives the same bytes with and without out=.

        As in a captured replay, the second call gets the saved buffers of
        the first and a buffer as ``out=``; a kernel may write it or return
        another array, which the replay copies in, so the bytes are compared
        either way.  ``band_flops=1`` forces conv2d onto its banded kernel,
        which writes ``out=``.  The elementwise kernels and matmul must write
        it: a replay of them then needs no allocation and no copy.
        """
        if band_flops is not None:
            monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", band_flops)
        for name in registered_ops():
            op = op_registry.get(name)
            if not op.replayable:
                continue
            for index, sample in enumerate(op.samples):
                arrays = tuple(
                    rng.uniform(sample.low, sample.high, size=shape) for shape in sample.shapes
                )
                saved: dict = {}
                plain = op.forward(arrays, dict(sample.params), saved, None)
                expected = (plain.dtype, plain.shape, plain.tobytes())
                buffer = np.empty_like(plain)
                landed = op.forward(arrays, dict(sample.params), saved, buffer)
                label = f"{name} sample {index}"
                assert (landed.dtype, landed.shape, landed.tobytes()) == expected, label
                if name in _WRITES_OUT:
                    assert landed is buffer, label

    def test_cost_metadata(self):
        flops, moved = op_registry.get("matmul").cost_of(((3, 4), (4, 5)), (3, 5), {}, 8)
        assert flops == 2 * 3 * 5 * 4
        assert moved == (12 + 20 + 15) * 8
        flops, moved = op_registry.get("conv2d").cost_of(
            ((1, 3, 8, 8), (4, 3, 3, 3)), (1, 4, 6, 6), {"stride": 1, "padding": 0}, 4
        )
        assert flops == 2 * (1 * 4 * 6 * 6) * 3 * 3 * 3
        assert op_registry.get("reshape").cost_of(((3, 4),), (12,), {}, 8) == (0, 0)
        getitem = op_registry.get("getitem")
        assert getitem.cost_of(((4, 5),), (5,), {"index": 2}, 8) == (0, 0)  # view
        assert getitem.cost_of(
            ((4, 5),), (3, 5), {"index": np.array([0, 2, 2])}, 8
        ) == (0, 2 * 15 * 8)  # gather copies

    def test_gradsample_rejects_invalid_ranges(self):
        with pytest.raises(ValueError, match="positive"):
            op_registry.GradSample(shapes=((2,),), positive=True)
        with pytest.raises(ValueError, match="empty"):
            op_registry.GradSample(shapes=((2,),), low=1.0, high=1.0)

    def test_output_nbytes_matches_dense_array(self):
        op = op_registry.get("gelu")
        assert op.output_nbytes((2, 3, 4), np.float32) == 2 * 3 * 4 * 4
        assert op.output_nbytes((5,), np.float64) == 40


class TestEagerAllocation:
    """Eager kernels allocate their own outputs, so every result stays valid."""

    def test_results_survive_later_steps(self, rng):
        x = Tensor(rng.normal(size=(16, 16)))
        kept = []
        for step in range(5):
            result = (x.exp().tanh() * float(step + 1)).data
            kept.append((result, result.copy()))
        for step, (result, snapshot) in enumerate(kept):
            np.testing.assert_array_equal(result, snapshot, err_msg=f"step {step}")

    def test_outputs_never_share_memory(self, rng):
        x = Tensor(rng.normal(size=(8, 8)))
        chain = [x]
        for link in (Tensor.exp, Tensor.tanh, lambda t: t * 0.5, F.gelu):
            chain.append(link(chain[-1]))
        arrays = [tensor.data for tensor in chain]
        for index, first in enumerate(arrays):
            for second in arrays[index + 1 :]:
                assert not np.shares_memory(first, second)

    def test_mixed_dtype_results_are_cast_to_default(self):
        """Non-default input dtypes compute, then cast on tensor creation."""
        from repro.autodiff import get_default_dtype

        default = get_default_dtype()
        other = np.dtype(np.float32 if default == np.float64 else np.float64)
        t = Tensor(np.ones(4))
        t.data = np.ones(4, dtype=other)  # simulate externally-loaded data
        out = t.exp()
        assert out.dtype == default
        np.testing.assert_array_equal(out.data, np.exp(np.ones(4, dtype=other)).astype(default))

    def test_concurrent_eager_chains_match_serial(self, rng):
        """Threads running the same ops at once each get their own bytes back."""
        workers, rounds = 6, 20

        def chain(array: np.ndarray) -> np.ndarray:
            x = Tensor(array)
            return F.gelu((x.exp() + 1.0).tanh() * 0.5).data

        inputs = [rng.normal(size=(32, 32)) for _ in range(workers)]
        expected = [chain(array).tobytes() for array in inputs]
        barrier = threading.Barrier(workers)
        failures: list[str] = []

        def hammer(tag: int) -> None:
            barrier.wait()
            for round_index in range(rounds):
                if chain(inputs[tag]).tobytes() != expected[tag]:
                    failures.append(f"thread {tag} round {round_index}")

        threads = [threading.Thread(target=hammer, args=(tag,)) for tag in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestProfiler:
    def test_dispatcher_feeds_active_profiler(self, rng):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)))
        with profile_ops() as profiler:
            F.gelu(x @ w).sum().backward()
        stats = profiler.as_dict()
        assert stats["matmul"]["calls"] == 1
        assert stats["gelu"]["calls"] == 1
        assert stats["matmul"]["flops"] == 2 * 4 * 3 * 6
        assert profiler.total_seconds() >= 0.0
        assert "matmul" in profiler.table()

    def test_inactive_by_default(self):
        assert active_profiler() is None

    def test_nested_scopes_share_the_outer_profiler(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with profile_ops() as outer:
            with profile_ops() as inner:
                x.exp()
            assert inner is outer
            assert active_profiler() is outer
        assert active_profiler() is None

    def test_captured_replay_reports_wholesale(self, rng):
        from repro.autodiff import CapturedExecution, TraceHandles

        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(objective=F.gelu(x @ w).sum(), input=x)

        captured = CapturedExecution()
        with profile_ops() as profiler:
            for _ in range(3):
                captured.run(trace, rng.normal(size=(2, 4)), key="p")
        assert profiler.as_dict()["captured_replay"]["calls"] == captured.stats.replays == 1

    def test_profiler_record_is_thread_safe(self):
        """The engine's thread backend records from several threads at once."""
        from repro.autodiff.profiler import OpProfiler

        profiler = OpProfiler()
        per_thread, workers = 500, 8

        def hammer():
            for _ in range(per_thread):
                profiler.record("hammer", 0.001, 10, 20)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        stat = profiler.as_dict()["hammer"]
        assert stat["calls"] == per_thread * workers
        assert stat["flops"] == 10 * per_thread * workers
