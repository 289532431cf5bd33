"""Per-kernel microbenchmarks: eager dispatch vs captured replay.

Two execution modes of the same op-registry kernels are timed:

* **eager** — the dispatcher traces a fresh graph per step and every kernel
  allocates its output;
* **captured replay** — the chain is recorded once and replayed by the
  capture layer, whose kernels write the recorded buffers in place (no
  graph rebuild, no temporaries).

The hard gate is that the captured replay beats the eager engine on the
elementwise-chain workload that dominates attack inner loops.  A
signed-input gelu leg gates the gelu kernel against tanh.  All numbers land
as JSON under ``results/runs`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, run_once, write_bench_trajectory
from repro.autodiff import CapturedExecution, EagerExecution, Tensor, TraceHandles
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry

#: Elementwise-chain workload shape: big enough that kernel time dominates
#: Python noise, small enough to stay cache-friendly on a laptop.
_CHAIN_SHAPE = (64, 256)
_CHAIN_STEPS = 150
_KERNEL_REPEATS = 300

#: Representative kernels for the per-kernel table (first registered sample
#: provides shapes and params, scaled up for stable timings).
_KERNEL_CASES = {
    "add": (((_CHAIN_SHAPE), (_CHAIN_SHAPE)), {}),
    "mul": (((_CHAIN_SHAPE), (_CHAIN_SHAPE)), {}),
    "exp": (((_CHAIN_SHAPE),), {}),
    "tanh": (((_CHAIN_SHAPE),), {}),
    "relu": (((_CHAIN_SHAPE),), {}),
    "gelu": (((_CHAIN_SHAPE),), {}),
    "sigmoid": (((_CHAIN_SHAPE),), {}),
    "matmul": (((64, 64), (64, 64)), {}),
    "conv2d": (((4, 3, 16, 16), (8, 3, 3, 3)), {"stride": 1, "padding": 1}),
}


def _chain_trace():
    """A pure elementwise chain -> scalar objective (the attack-loop shape)."""

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        hidden = ((x * 2.0 + 0.5).tanh().exp() + 1.0).sqrt()
        objective = (F.sigmoid(hidden) * F.relu(x)).sum()
        return TraceHandles(objective=objective, input=x)

    return trace


def _time_kernels() -> dict:
    """Per-kernel eager dispatch timings (µs per call)."""
    rng = np.random.default_rng(11)
    rows: dict[str, dict] = {}
    for name, (shapes, params) in _KERNEL_CASES.items():
        tensors = [Tensor(np.abs(rng.normal(size=shape)) + 0.5) for shape in shapes]
        op_registry.apply(name, tensors, dict(params))  # warm-up (BLAS, caches)
        start = time.perf_counter()
        for _ in range(_KERNEL_REPEATS):
            op_registry.apply(name, tensors, dict(params))
        eager_seconds = time.perf_counter() - start
        rows[name] = {"eager_us_per_call": eager_seconds / _KERNEL_REPEATS * 1e6}
    return rows


#: Signed-input gelu leg: N(0,1) samples put half of every operand below
#: zero, where a ``pow()``-based cube takes libm's slow path; the positive
#: inputs of the kernel table above would hide it.
_SIGNED_SHAPE = (64, 256)
_SIGNED_REPEATS = 100
_SIGNED_SWEEPS = 10
_GELU_FORWARD_MAX_RATIO = 4.0
_GELU_FORWARD_BACKWARD_MAX_RATIO = 3.0


def _time_signed_gelu() -> dict:
    """gelu vs tanh on signed float64 inputs, forward and forward+backward.

    Each figure is the best of ``_SIGNED_SWEEPS`` sweeps of µs per call.
    gelu and tanh sweeps alternate, so a host slowdown lands on both rather
    than on one side of the ratio the gate reads.
    """
    array = np.random.default_rng(43).normal(size=_SIGNED_SHAPE)
    grad = np.random.default_rng(47).normal(size=_SIGNED_SHAPE)

    def forward(name):
        op_registry.apply(name, [Tensor(array)])

    def forward_backward(name):
        x = Tensor(array, requires_grad=True)
        op_registry.apply(name, [x]).backward(grad)

    def best_us(step) -> dict[str, float]:
        best = {"gelu": float("inf"), "tanh": float("inf")}
        for name in best:
            step(name)  # warm-up
        for _ in range(_SIGNED_SWEEPS):
            for name in best:
                start = time.perf_counter()
                for _ in range(_SIGNED_REPEATS):
                    step(name)
                best[name] = min(best[name], time.perf_counter() - start)
        return {name: seconds / _SIGNED_REPEATS * 1e6 for name, seconds in best.items()}

    row = {"shape": list(_SIGNED_SHAPE), "dtype": str(Tensor(array).data.dtype)}
    for label, step in (("forward", forward), ("forward_backward", forward_backward)):
        for name, micros in best_us(step).items():
            row[f"{name}_{label}_us"] = micros
        row[f"gelu_over_tanh_{label}"] = row[f"gelu_{label}_us"] / row[f"tanh_{label}_us"]
    return row


def _time_chain() -> dict:
    """Elementwise-chain gradient queries: eager vs captured replay."""
    rng = np.random.default_rng(13)
    trace = _chain_trace()
    batches = [rng.normal(size=_CHAIN_SHAPE) for _ in range(_CHAIN_STEPS)]
    def best_of(runs: int, step) -> float:
        """Fastest of ``runs`` timed sweeps — robust to CI scheduling noise."""
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            for batch in batches:
                step(batch)
            best = min(best, time.perf_counter() - start)
        return best

    eager = EagerExecution()
    eager.run(trace, batches[0])  # warm-up
    eager_seconds = best_of(3, lambda batch: eager.run(trace, batch))

    captured = CapturedExecution()
    captured.run(trace, batches[0], key="chain")
    captured.run(trace, batches[1], key="chain")  # records
    replay_seconds = best_of(3, lambda batch: captured.run(trace, batch, key="chain"))
    parity = np.array(captured.run(trace, batches[0], key="chain").input.grad)
    expected = np.array(eager.run(trace, batches[0]).input.grad)
    assert np.array_equal(parity, expected), "captured replay diverged from eager"
    return {
        "shape": list(_CHAIN_SHAPE),
        "steps": _CHAIN_STEPS,
        "eager_seconds": eager_seconds,
        "replay_seconds": replay_seconds,
        "replay_speedup_vs_eager": eager_seconds / max(replay_seconds, 1e-9),
        "queries_per_second": {
            "eager": _CHAIN_STEPS / eager_seconds,
            "replay": _CHAIN_STEPS / replay_seconds,
        },
    }


def test_op_microbench_and_report(benchmark):
    """Kernel table + chain workload; the captured replay must beat eager."""
    kernels = run_once(benchmark, _time_kernels)
    signed_gelu = _time_signed_gelu()
    chain = _time_chain()
    print()
    print(f"{'kernel':<10}{'eager µs':>12}")
    for name, row in kernels.items():
        print(f"{name:<10}{row['eager_us_per_call']:>12.1f}")
    print(
        f"[signed gelu {signed_gelu['shape']} {signed_gelu['dtype']}] "
        f"forward {signed_gelu['gelu_forward_us']:.1f} µs "
        f"({signed_gelu['gelu_over_tanh_forward']:.2f}x tanh), "
        f"forward+backward {signed_gelu['gelu_forward_backward_us']:.1f} µs "
        f"({signed_gelu['gelu_over_tanh_forward_backward']:.2f}x tanh)"
    )
    # Slow-path gate: on signed inputs gelu must stay within a small multiple
    # of tanh, the transcendental at its core.  A cube computed through
    # ``pow()`` measures ~27x (forward) and 11-15x (forward+backward).
    assert signed_gelu["gelu_over_tanh_forward"] <= _GELU_FORWARD_MAX_RATIO, (
        f"gelu forward {signed_gelu['gelu_over_tanh_forward']:.2f}x tanh "
        f"> {_GELU_FORWARD_MAX_RATIO}x on signed inputs"
    )
    assert (
        signed_gelu["gelu_over_tanh_forward_backward"] <= _GELU_FORWARD_BACKWARD_MAX_RATIO
    ), (
        f"gelu forward+backward {signed_gelu['gelu_over_tanh_forward_backward']:.2f}x "
        f"tanh > {_GELU_FORWARD_BACKWARD_MAX_RATIO}x on signed inputs"
    )
    print(
        f"[chain {chain['shape']}] eager {chain['eager_seconds']:.3f}s, "
        f"captured replay {chain['replay_seconds']:.3f}s "
        f"({chain['replay_speedup_vs_eager']:.2f}x)"
    )
    # Acceptance gate: the captured replay of the recorded chain beats the
    # eager engine rebuilding the graph per query.
    assert chain["replay_seconds"] < chain["eager_seconds"], (
        "captured replay did not beat eager kernels on the elementwise chain"
    )
    payload = {
        "scenario": "bench_op_microbench",
        "kernels": kernels,
        "signed_gelu": signed_gelu,
        "elementwise_chain": chain,
        "parity": "captured replay gradients bit-identical to eager",
    }
    # The chain_fused_* names predate the single replay step; they stay so
    # the trajectory keeps comparing against earlier BENCH_ops.json files.
    write_bench_trajectory(
        "ops",
        {
            "signed_gelu_forward_us": signed_gelu["gelu_forward_us"],
            "signed_gelu_forward_backward_us": signed_gelu["gelu_forward_backward_us"],
            "chain_eager_seconds": chain["eager_seconds"],
            "chain_fused_replay_seconds": chain["replay_seconds"],
            "chain_fused_speedup_vs_eager": chain["replay_speedup_vs_eager"],
        },
    )
    runs_dir = RESULTS_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / "bench_op_microbench.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {path}")
