"""Per-kernel microbenchmarks: eager dispatch vs pooled buffers vs fused replay.

Three execution modes of the same op-registry kernels are timed:

* **eager** — the dispatcher traces a fresh graph per step and every kernel
  allocates its output (the classic engine behaviour);
* **pooled** — identical, but a :class:`~repro.autodiff.pool.BufferPool` is
  active and recycled per step, so elementwise kernels write into reused
  ``out=`` arrays instead of allocating;
* **fused replay** — the chain is recorded once and replayed through the
  capture layer's fused elementwise chains (kernels write the recorded
  buffers in place; no graph rebuild, no temporaries).

Two hard gates are asserted: the pool stops allocating after the first step
(pooled-vs-unpooled allocation count), and the fused replay beats the eager
engine on the elementwise-chain workload that dominates attack inner loops
and serving forwards.  A conv-tower leg additionally times gradient replays
of a stacked conv/pool network serially vs with batch-axis sharding at four
threads (sha256-asserted bit-identical) — the heavyweight-kernel path the
cost model fans out per sample.  Two further legs cover the sharding axes
batch banding cannot: a backward-bound tower whose cross-batch
``grad_weight`` partials combine through the fixed tree-reduce, and a
batch-1 inference tower whose convs band over output rows (spatial H×W
banding) — both sha256-gated bit-identical between serial and threaded
replays.  All numbers land as JSON under ``results/runs`` for
EXPERIMENTS.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, run_once, write_bench_trajectory
from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    InferenceHandles,
    InferenceRecording,
    Tensor,
    TraceHandles,
    no_grad,
    use_buffer_pool,
)
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff.conv import avg_pool2d, conv2d, max_pool2d

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
    """Per-kernel eager vs pooled dispatch timings (µs per call)."""
    rng = np.random.default_rng(11)
    rows: dict[str, dict] = {}
    for name, (shapes, params) in _KERNEL_CASES.items():
        tensors = [Tensor(np.abs(rng.normal(size=shape)) + 0.5) for shape in shapes]
        op_registry.apply(name, tensors, dict(params))  # warm-up (BLAS, caches)
        start = time.perf_counter()
        for _ in range(_KERNEL_REPEATS):
            op_registry.apply(name, tensors, dict(params))
        eager_seconds = time.perf_counter() - start
        with use_buffer_pool() as pool:
            op_registry.apply(name, tensors, dict(params))
            pool.recycle()
            start = time.perf_counter()
            for _ in range(_KERNEL_REPEATS):
                op_registry.apply(name, tensors, dict(params))
                pool.recycle()
            pooled_seconds = time.perf_counter() - start
        rows[name] = {
            "eager_us_per_call": eager_seconds / _KERNEL_REPEATS * 1e6,
            "pooled_us_per_call": pooled_seconds / _KERNEL_REPEATS * 1e6,
            "pool_allocations": pool.stats.allocations,
            "pool_reuses": pool.stats.reuses,
        }
    return rows


#: Signed-input gelu leg: N(0,1) samples put half of every operand below
#: zero, where a ``pow()``-based cube takes libm's slow path; the positive
#: inputs of the kernel table above would hide it.
_SIGNED_SHAPE = (64, 256)
_SIGNED_REPEATS = 100
_GELU_FORWARD_MAX_RATIO = 4.0
_GELU_FORWARD_BACKWARD_MAX_RATIO = 3.0


def _time_signed_gelu() -> dict:
    """gelu vs tanh on signed float64 inputs, forward and forward+backward.

    Each figure is the best of 3 sweeps of µs per call; the gate is on the
    ratios to tanh measured the same way, so host speed cancels out.
    """
    array = np.random.default_rng(43).normal(size=_SIGNED_SHAPE)
    grad = np.random.default_rng(47).normal(size=_SIGNED_SHAPE)

    def forward(name):
        op_registry.apply(name, [Tensor(array)])

    def forward_backward(name):
        x = Tensor(array, requires_grad=True)
        op_registry.apply(name, [x]).backward(grad)

    def best_us(step, name) -> float:
        step(name)  # warm-up
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(_SIGNED_REPEATS):
                step(name)
            best = min(best, time.perf_counter() - start)
        return best / _SIGNED_REPEATS * 1e6

    row = {"shape": list(_SIGNED_SHAPE), "dtype": str(Tensor(array).data.dtype)}
    for label, step in (("forward", forward), ("forward_backward", forward_backward)):
        for name in ("gelu", "tanh"):
            row[f"{name}_{label}_us"] = best_us(step, name)
        row[f"gelu_over_tanh_{label}"] = row[f"gelu_{label}_us"] / row[f"tanh_{label}_us"]
    return row


def _time_chain() -> dict:
    """Elementwise-chain gradient queries: eager vs pooled vs fused replay."""
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

    def pooled_step(batch):
        eager.run(trace, batch)
        pool.recycle()

    with use_buffer_pool() as pool:
        pooled_step(batches[0])  # warm the free lists
        allocations_after_warm_step = pool.stats.allocations
        pooled_seconds = best_of(3, pooled_step)
    # The hard pooling gate: a warm pool never allocates again — every step
    # after the first draws all of its elementwise outputs from the free
    # lists (unpooled execution allocates the same arrays every step).
    assert pool.stats.allocations == allocations_after_warm_step, (
        f"pool kept allocating: {pool.stats.allocations} != {allocations_after_warm_step}"
    )
    assert pool.stats.reuses >= (_CHAIN_STEPS - 1) * allocations_after_warm_step

    captured = CapturedExecution()
    captured.run(trace, batches[0], key="chain")
    captured.run(trace, batches[1], key="chain")  # records
    fused_seconds = best_of(3, lambda batch: captured.run(trace, batch, key="chain"))
    recording = next(iter(captured._recordings.values()))
    parity = np.array(captured.run(trace, batches[0], key="chain").input.grad)
    expected = np.array(eager.run(trace, batches[0]).input.grad)
    assert np.array_equal(parity, expected), "fused replay diverged from eager"
    return {
        "shape": list(_CHAIN_SHAPE),
        "steps": _CHAIN_STEPS,
        "eager_seconds": eager_seconds,
        "pooled_seconds": pooled_seconds,
        "fused_replay_seconds": fused_seconds,
        "fused_speedup_vs_eager": eager_seconds / max(fused_seconds, 1e-9),
        "pooled_allocations_per_step": 0,
        "unpooled_allocations_per_step": allocations_after_warm_step,
        "pool_stats": pool.stats.as_dict(),
        "fused_chains": recording.fused_chains,
        "fused_ops": recording.fused_ops,
        "queries_per_second": {
            "eager": _CHAIN_STEPS / eager_seconds,
            "pooled": _CHAIN_STEPS / pooled_seconds,
            "fused_replay": _CHAIN_STEPS / fused_seconds,
        },
    }


#: Wide replay workload: independent elementwise branches the wave scheduler
#: can run concurrently.  Branch count matches a typical multi-head block.
_WIDE_SHAPE = (96, 256)
_WIDE_BRANCHES = 8
_WIDE_REPEATS = 30


def _wide_trace():
    """Independent elementwise branches merged at the end (width-8 waves)."""

    def trace(array: np.ndarray) -> InferenceHandles:
        with no_grad():
            x = Tensor(array, is_input=True)
            branches = [
                ((x * (1.0 + 0.25 * index) + 0.1).tanh().exp() + 1.0).sqrt()
                for index in range(_WIDE_BRANCHES)
            ]
            merged = branches[0]
            for branch in branches[1:]:
                merged = merged + branch
        return InferenceHandles(input=x, output=merged)

    return trace


@contextlib.contextmanager
def _replay_threads(threads: int):
    """Pin ``REPRO_REPLAY_THREADS`` for a timed sweep, restoring on exit."""
    previous = os.environ.get("REPRO_REPLAY_THREADS")
    os.environ["REPRO_REPLAY_THREADS"] = str(threads)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_REPLAY_THREADS", None)
        else:
            os.environ["REPRO_REPLAY_THREADS"] = previous


def _best_interleaved(sweep, threads=(1, 4), rounds=5) -> dict[int, float]:
    """Fastest sweep time per replay thread count, rounds interleaved.

    Timing the serial config's sweeps back to back and then the parallel
    config's lets container scheduling drift land entirely on one side and
    masquerade as a speedup (or slowdown).  Alternating thread counts within
    every round spreads the drift across both configs — essential on
    few-core hosts where the worker clamp makes both schedules identical and
    the honest ratio is 1.0x.
    """
    best = dict.fromkeys(threads, float("inf"))
    for thread_count in threads:
        with _replay_threads(thread_count):
            sweep()  # warm-up (spins the executor up once per config)
    for round_index in range(rounds):
        # Reverse the order every other round: whichever config runs second
        # within a round would otherwise systematically absorb any
        # within-round slowdown (frequency decay, cache pressure).
        order = threads if round_index % 2 == 0 else tuple(reversed(threads))
        for thread_count in order:
            with _replay_threads(thread_count):
                start = time.perf_counter()
                sweep()
                elapsed = time.perf_counter() - start
                best[thread_count] = min(best[thread_count], elapsed)
    return best


def _time_parallel_replay() -> dict:
    """Wide fused graph replayed serially vs on 4 worker threads.

    The same :class:`InferenceRecording` is replayed under
    ``REPRO_REPLAY_THREADS`` 1 and 4; a sha256 over the output buffer asserts
    the parallel schedule is bit-identical to the serial one.
    """
    rng = np.random.default_rng(17)
    batch = rng.normal(size=_WIDE_SHAPE)
    recording = InferenceRecording(_wide_trace()(batch))
    assert recording.max_wave_width >= _WIDE_BRANCHES, "wide graph did not level wide"

    def sweep():
        for _ in range(_WIDE_REPEATS):
            recording.replay(batch)

    def digest_at(threads: int) -> str:
        with _replay_threads(threads):
            return hashlib.sha256(
                recording.replay(batch).output.data.tobytes()
            ).hexdigest()

    best = _best_interleaved(sweep, rounds=9)  # cheap sweep — tighten the best-of
    serial_seconds, parallel_seconds = best[1], best[4]
    serial_digest, parallel_digest = digest_at(1), digest_at(4)
    assert parallel_digest == serial_digest, "parallel replay diverged from serial"
    return {
        "shape": list(_WIDE_SHAPE),
        "branches": _WIDE_BRANCHES,
        "waves": recording.waves,
        "max_wave_width": recording.max_wave_width,
        "serial_seconds": serial_seconds,
        "parallel4_seconds": parallel_seconds,
        "parallel_speedup": serial_seconds / max(parallel_seconds, 1e-9),
        "output_sha256": serial_digest,
    }


#: Conv-tower workload: the heavyweight-kernel gradient query batch-axis
#: sharding targets — per-sample conv/pool bands fanned across replay workers.
_TOWER_BATCH_SHAPE = (32, 3, 16, 16)
_TOWER_REPEATS = 10


def _tower_trace():
    """conv -> relu -> max_pool -> conv -> relu -> avg_pool -> matmul head."""
    rng = np.random.default_rng(19)

    def parameter(shape, scale):
        return Tensor(
            rng.normal(size=shape) * scale, requires_grad=True, is_parameter=True
        )

    w1 = parameter((16, 3, 3, 3), 0.2)
    b1 = parameter((16,), 0.1)
    w2 = parameter((32, 16, 3, 3), 0.2)
    head = parameter((512, 10), 0.2)

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        h = conv2d(x, w1, b1, stride=1, padding=1)
        h = F.relu(h)
        h = max_pool2d(h, 2)
        h = conv2d(h, w2, stride=1, padding=1)
        h = F.relu(h)
        h = avg_pool2d(h, 2)
        logits = h.reshape(h.shape[0], -1) @ head
        return TraceHandles(objective=(logits * logits).sum(), input=x)

    return trace


def _time_conv_tower_replay() -> dict:
    """Conv-tower gradient replays: serial vs batch-axis-sharded (4 threads).

    The recorded tower's conv/pool steps plan as sharded units; under
    ``REPRO_REPLAY_THREADS=4`` their per-sample bands fan out across the
    replay workers while single-core hosts fall back to the exact serial
    schedule.  A sha256 over the objective and input gradient asserts the
    sharded replay is bit-identical to the serial one.
    """
    from repro.autodiff.capture import _ShardedNode

    rng = np.random.default_rng(23)
    batch = rng.normal(size=_TOWER_BATCH_SHAPE)
    trace = _tower_trace()
    captured = CapturedExecution()
    captured.run(trace, batch, key="tower")
    captured.run(trace, batch, key="tower")  # records
    recording = next(iter(captured._recordings.values()))
    sharded_ops = sorted(
        {
            step.call.op.name
            for step in recording._plan.steps
            if isinstance(step, _ShardedNode)
        }
    )
    assert "conv2d" in sharded_ops, "conv tower did not plan sharded conv steps"

    def sweep():
        for _ in range(_TOWER_REPEATS):
            captured.run(trace, batch, key="tower")

    def digest_at(threads: int) -> str:
        with _replay_threads(threads):
            handles = captured.run(trace, batch, key="tower")
            digest = hashlib.sha256(handles.objective.data.tobytes())
            digest.update(np.array(handles.input.grad).tobytes())
            return digest.hexdigest()

    best = _best_interleaved(sweep)
    serial_seconds, sharded_seconds = best[1], best[4]
    serial_digest, sharded_digest = digest_at(1), digest_at(4)
    assert sharded_digest == serial_digest, "sharded tower replay diverged from serial"
    return {
        "batch_shape": list(_TOWER_BATCH_SHAPE),
        "steps_per_sweep": _TOWER_REPEATS,
        "sharded_ops": sharded_ops,
        "serial_seconds": serial_seconds,
        "sharded4_seconds": sharded_seconds,
        "parallel_speedup": serial_seconds / max(sharded_seconds, 1e-9),
        "grad_sha256": serial_digest,
    }


#: Backward-bound tower: batch and channel widths sized so the second conv's
#: cross-batch ``grad_weight`` passes the band floor and tree-reduces.
_REDUCE_BATCH_SHAPE = (32, 3, 32, 32)
_REDUCE_REPEATS = 6

#: Batch-1 spatial workload: one wide-channel sample large enough that the
#: conv forwards band over output rows under the default FLOP floor.
_SPATIAL_SHAPE = (1, 16, 96, 96)
_SPATIAL_REPEATS = 8


def _reduce_tower_trace():
    """conv -> relu -> max_pool -> conv -> relu -> avg_pool -> matmul head."""
    rng = np.random.default_rng(29)

    def parameter(shape, scale):
        return Tensor(
            rng.normal(size=shape) * scale, requires_grad=True, is_parameter=True
        )

    w1 = parameter((16, 3, 3, 3), 0.2)
    b1 = parameter((16,), 0.1)
    w2 = parameter((32, 16, 3, 3), 0.2)
    head = parameter((32 * 8 * 8, 10), 0.05)

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        h = conv2d(x, w1, b1, stride=1, padding=1)
        h = F.relu(h)
        h = max_pool2d(h, 2)
        h = conv2d(h, w2, stride=1, padding=1)
        h = F.relu(h)
        h = avg_pool2d(h, 2)
        logits = h.reshape(h.shape[0], -1) @ head
        return TraceHandles(objective=(logits * logits).sum(), input=x)

    return trace


def _time_tree_reduce_backward() -> dict:
    """Backward-bound tower replays: serial vs tree-reduced grads (4 threads).

    The second conv's cross-batch ``grad_weight`` computes per-band partials
    that combine through the fixed binary tree in
    :func:`repro.autodiff.sharding.tree_reduce`; under 4 replay threads the
    leaf partials fan out across workers while the combine order stays a pure
    function of the band count.  A sha256 over the objective and input
    gradient asserts the tree-reduced replay is bit-identical to the serial
    one — the whole point of the fixed tree.
    """
    from repro.autodiff import profile_ops

    rng = np.random.default_rng(31)
    batch = rng.normal(size=_REDUCE_BATCH_SHAPE)
    trace = _reduce_tower_trace()
    captured = CapturedExecution()
    captured.run(trace, batch, key="reduce-tower")
    captured.run(trace, batch, key="reduce-tower")  # records
    with _replay_threads(4):
        with profile_ops() as profiler:
            captured.run(trace, batch, key="reduce-tower")
    rows = profiler.as_dict()
    assert "conv2d_treereduce" in rows, "backward did not take the tree-reduce path"

    def sweep():
        for _ in range(_REDUCE_REPEATS):
            captured.run(trace, batch, key="reduce-tower")

    def digest_at(threads: int) -> str:
        with _replay_threads(threads):
            handles = captured.run(trace, batch, key="reduce-tower")
            digest = hashlib.sha256(handles.objective.data.tobytes())
            digest.update(np.array(handles.input.grad).tobytes())
            return digest.hexdigest()

    best = _best_interleaved(sweep)
    serial_seconds, reduced_seconds = best[1], best[4]
    serial_digest, reduced_digest = digest_at(1), digest_at(4)
    assert reduced_digest == serial_digest, "tree-reduced replay diverged from serial"
    return {
        "batch_shape": list(_REDUCE_BATCH_SHAPE),
        "steps_per_sweep": _REDUCE_REPEATS,
        "treereduce_partial_bytes": int(rows["conv2d_treereduce"]["meta"]["partial_bytes"]),
        "serial_seconds": serial_seconds,
        "treereduce4_seconds": reduced_seconds,
        "parallel_speedup": serial_seconds / max(reduced_seconds, 1e-9),
        "grad_sha256": serial_digest,
    }


def _spatial_tower_trace():
    """Batch-1 inference tower: two wide convs -> max_pool -> matmul head."""
    rng = np.random.default_rng(37)
    w1 = Tensor(rng.normal(size=(32, 16, 3, 3)) * 0.2)
    b1 = Tensor(rng.normal(size=(32,)) * 0.1)
    w2 = Tensor(rng.normal(size=(32, 32, 3, 3)) * 0.2)
    head = Tensor(rng.normal(size=(32 * 48 * 48, 10)) * 0.02)

    def trace(array: np.ndarray) -> InferenceHandles:
        with no_grad():
            x = Tensor(array, is_input=True)
            h = conv2d(x, w1, b1, stride=1, padding=1)
            h = F.relu(h)
            h = conv2d(h, w2, stride=1, padding=1)
            h = max_pool2d(h, 2)
            logits = h.reshape(h.shape[0], -1) @ head
        return InferenceHandles(input=x, output=logits)

    return trace


def _time_batch1_spatial_replay() -> dict:
    """Batch-1 forward replays: serial vs spatial (H×W) banding at 4 threads.

    With one sample there is no batch axis to shard, so the recorded convs
    and pool plan over output-row bands instead (halo-aware im2col windows).
    A sha256 over the logits asserts the banded schedule reproduces the
    serial replay byte for byte — im2col is pure copies and the per-band
    GEMMs are the recording's own banding, never a function of threads.
    """
    from repro.autodiff.capture import _ShardedNode

    rng = np.random.default_rng(41)
    batch = rng.normal(size=_SPATIAL_SHAPE)
    recording = InferenceRecording(_spatial_tower_trace()(batch))
    spatial_steps = sorted(
        {
            step.profile_name
            for step in recording._plan.steps
            if isinstance(step, _ShardedNode)
        }
    )
    assert "conv2d_spatial" in spatial_steps, "batch-1 convs did not plan spatial bands"

    def sweep():
        for _ in range(_SPATIAL_REPEATS):
            recording.replay(batch)

    def digest_at(threads: int) -> str:
        with _replay_threads(threads):
            return hashlib.sha256(
                recording.replay(batch).output.data.tobytes()
            ).hexdigest()

    best = _best_interleaved(sweep)
    serial_seconds, spatial_seconds = best[1], best[4]
    serial_digest, spatial_digest = digest_at(1), digest_at(4)
    assert spatial_digest == serial_digest, "spatial replay diverged from serial"
    return {
        "shape": list(_SPATIAL_SHAPE),
        "steps_per_sweep": _SPATIAL_REPEATS,
        "spatial_steps": spatial_steps,
        "serial_seconds": serial_seconds,
        "spatial4_seconds": spatial_seconds,
        "parallel_speedup": serial_seconds / max(spatial_seconds, 1e-9),
        "logits_sha256": serial_digest,
    }


def test_op_microbench_and_report(benchmark):
    """Kernel table + chain workload; fused+pooled must beat eager."""
    kernels = run_once(benchmark, _time_kernels)
    signed_gelu = _time_signed_gelu()
    chain = _time_chain()
    wide = _time_parallel_replay()
    tower = _time_conv_tower_replay()
    reduce_leg = _time_tree_reduce_backward()
    spatial = _time_batch1_spatial_replay()
    print()
    print(f"{'kernel':<10}{'eager µs':>12}{'pooled µs':>12}")
    for name, row in kernels.items():
        print(
            f"{name:<10}{row['eager_us_per_call']:>12.1f}{row['pooled_us_per_call']:>12.1f}"
        )
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
        f"pooled {chain['pooled_seconds']:.3f}s, "
        f"fused replay {chain['fused_replay_seconds']:.3f}s "
        f"({chain['fused_speedup_vs_eager']:.2f}x, "
        f"{chain['fused_chains']} chains / {chain['fused_ops']} fused ops)"
    )
    # Acceptance gate: the fused replay of the recorded chain beats the
    # eager engine rebuilding the graph per query.
    assert chain["fused_replay_seconds"] < chain["eager_seconds"], (
        "fused replay did not beat eager kernels on the elementwise chain"
    )
    assert chain["fused_chains"] >= 1
    print(
        f"[wide {wide['shape']} x{wide['branches']}] serial {wide['serial_seconds']:.3f}s, "
        f"4 threads {wide['parallel4_seconds']:.3f}s "
        f"({wide['parallel_speedup']:.2f}x, waves={wide['waves']}, "
        f"width={wide['max_wave_width']}, bit-identical)"
    )
    # Parallel-replay gate: with real cores available, the wave-scheduled
    # replay of the wide graph must cut wall time at least in half.  On
    # single-core runners there is no parallelism to measure, so only the
    # bit-identity assertion (inside _time_parallel_replay) applies.
    if (os.cpu_count() or 1) >= 4:
        assert wide["parallel_speedup"] >= 2.0, (
            f"parallel replay speedup {wide['parallel_speedup']:.2f}x < 2x at 4 threads"
        )
    print(
        f"[tower {tower['batch_shape']}] serial {tower['serial_seconds']:.3f}s, "
        f"sharded 4 threads {tower['sharded4_seconds']:.3f}s "
        f"({tower['parallel_speedup']:.2f}x, sharded ops: "
        f"{', '.join(tower['sharded_ops'])}, bit-identical)"
    )
    # Batch-axis sharding gate: with real cores, splitting the tower's conv
    # and pool steps into per-sample bands must beat the serial replay.  On
    # few-core hosts the cost model falls back to the exact serial schedule,
    # so only the sha256 parity (inside _time_conv_tower_replay) applies.
    if (os.cpu_count() or 1) >= 4:
        assert tower["parallel_speedup"] >= 1.5, (
            f"sharded conv-tower speedup {tower['parallel_speedup']:.2f}x < 1.5x"
        )
    print(
        f"[treereduce {reduce_leg['batch_shape']}] serial {reduce_leg['serial_seconds']:.3f}s, "
        f"4 threads {reduce_leg['treereduce4_seconds']:.3f}s "
        f"({reduce_leg['parallel_speedup']:.2f}x, "
        f"{reduce_leg['treereduce_partial_bytes']} partial bytes, bit-identical grads)"
    )
    # Tree-reduce gate: with real cores, fanning the cross-batch grad_weight
    # partials over workers must beat the serial backward.  The fixed combine
    # tree keeps the gradient bytes identical either way (sha256 above), so
    # on few-core hosts only the parity assertion applies.
    if (os.cpu_count() or 1) >= 4:
        assert reduce_leg["parallel_speedup"] >= 1.5, (
            f"tree-reduce backward speedup {reduce_leg['parallel_speedup']:.2f}x < 1.5x"
        )
    print(
        f"[batch-1 spatial {spatial['shape']}] serial {spatial['serial_seconds']:.3f}s, "
        f"4 threads {spatial['spatial4_seconds']:.3f}s "
        f"({spatial['parallel_speedup']:.2f}x, spatial steps: "
        f"{', '.join(spatial['spatial_steps'])}, bit-identical logits)"
    )
    # Spatial-banding gate: with real cores, output-row bands must beat the
    # serial batch-1 replay; single-sample serving forwards are exactly the
    # workload batch-axis sharding cannot touch.
    if (os.cpu_count() or 1) >= 4:
        assert spatial["parallel_speedup"] >= 1.3, (
            f"batch-1 spatial speedup {spatial['parallel_speedup']:.2f}x < 1.3x"
        )
    payload = {
        "scenario": "bench_op_microbench",
        "kernels": kernels,
        "signed_gelu": signed_gelu,
        "elementwise_chain": chain,
        "parallel_replay": wide,
        "conv_tower_replay": tower,
        "tree_reduce_backward": reduce_leg,
        "batch1_spatial_replay": spatial,
        "parity": "fused replay gradients bit-identical to eager",
    }
    write_bench_trajectory(
        "ops",
        {
            "signed_gelu_forward_us": signed_gelu["gelu_forward_us"],
            "signed_gelu_forward_backward_us": signed_gelu["gelu_forward_backward_us"],
            "chain_eager_seconds": chain["eager_seconds"],
            "chain_pooled_seconds": chain["pooled_seconds"],
            "chain_fused_replay_seconds": chain["fused_replay_seconds"],
            "chain_fused_speedup_vs_eager": chain["fused_speedup_vs_eager"],
            "wide_replay_serial_seconds": wide["serial_seconds"],
            "wide_replay_parallel4_seconds": wide["parallel4_seconds"],
            "wide_replay_parallel_speedup": wide["parallel_speedup"],
            "wide_max_wave_width": wide["max_wave_width"],
            "wide_waves": wide["waves"],
            "conv_tower_replay_serial_seconds": tower["serial_seconds"],
            "conv_tower_replay_sharded4_seconds": tower["sharded4_seconds"],
            "conv_tower_replay_parallel_speedup": tower["parallel_speedup"],
            "conv_tower_treereduce_serial_seconds": reduce_leg["serial_seconds"],
            "conv_tower_treereduce4_seconds": reduce_leg["treereduce4_seconds"],
            "conv_tower_treereduce_speedup": reduce_leg["parallel_speedup"],
            "batch1_spatial_serial_seconds": spatial["serial_seconds"],
            "batch1_spatial4_seconds": spatial["spatial4_seconds"],
            "batch1_spatial_speedup": spatial["parallel_speedup"],
        },
    )
    runs_dir = RESULTS_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / "bench_op_microbench.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {path}")
