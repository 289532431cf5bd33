"""Span tracing for the traced benchmark run, recorded from outside the program.

While active, the tracer replaces a fixed table of the program's public
functions with timing wrappers and puts the originals back afterwards, so the
program carries no tracing code and an untraced run never imports this
module.  Every wrapped call becomes a span ``(id, name, start, end, parent,
thread)`` kept in memory; a few calls only bump counters (world switches,
graph replays, bytes).  The program's own op profiler
(``repro.autodiff.profiler.profile_ops``) runs for the same intervals and
supplies the per-op rows.

Span names are ``<layer>.<function>``, the layer being the program module
the function lives in (``eval.engine``, ``attacks``, ``core``, ``autodiff``,
``nn``, ``tee``, ``fl``, ``serve``; ``models.accuracy`` is the model zoo's
accuracy helper).  A span's self time is its duration minus the durations of
its direct children on the same thread; traced wall-clock that no top-level
span covers is reported as ``unattributed``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute path, span name): each is replaced by a timing wrapper.
#: Functions imported by name are patched in the module that calls them.
SPAN_PATCHES = (
    ("repro.eval.engine.runner", "ExperimentEngine.run", "eval.engine.run"),
    ("repro.eval.engine.cells", "run_individual_cell", "eval.engine.cell"),
    ("repro.eval.engine.cache", "ArtifactCache.get_dataset", "eval.engine.get_dataset"),
    ("repro.eval.engine.cache", "ArtifactCache.get_defender", "eval.engine.get_defender"),
    ("repro.eval.engine.cache", "fit_classifier", "nn.fit"),
    ("repro.nn.optim", "SGD.step", "nn.optimizer"),
    ("repro.nn.optim", "Adam.step", "nn.optimizer"),
    ("repro.models.base", "ImageClassifier.accuracy", "models.accuracy"),
    ("repro.attacks.engine.driver", "AttackDriver.run", "attacks.driver"),
    ("repro.core.views", "FullWhiteBoxView.logits", "core.view.logits"),
    ("repro.core.views", "RestrictedWhiteBoxView.logits", "core.view.logits"),
    ("repro.core.views", "FullWhiteBoxView.gradient", "core.view.gradient_clear"),
    ("repro.core.views", "RestrictedWhiteBoxView.gradient", "core.view.gradient_shielded"),
    ("repro.core.views", "RestrictedWhiteBoxView.adjoint", "core.view.adjoint"),
    ("repro.autodiff.capture", "CapturedExecution.run", "autodiff.captured"),
    ("repro.autodiff.capture", "EagerExecution.run", "autodiff.eager"),
    ("repro.tee.secure_channel", "SecureChannel.encrypt", "tee.seal"),
    ("repro.tee.secure_channel", "SecureChannel.decrypt", "tee.unseal"),
    ("repro.tee.enclave", "Enclave.attest", "tee.attest"),
    ("repro.fl.runtime.runtime", "FederationRuntime.run_round", "fl.round"),
    ("repro.fl.runtime.runtime", "encode_state", "fl.encode"),
    ("repro.fl.runtime.transport", "run_client_task", "fl.client"),
    ("repro.fl.runtime.envelopes", "UpdateEnvelope.open", "fl.open"),
    ("repro.fl.aggregation", "StreamingAggregator.add", "fl.aggregate"),
    ("repro.fl.aggregation", "StreamingAggregator.finalize", "fl.aggregate"),
    ("repro.serve.gateway.gateway", "GatewayService.serve", "serve.serve"),
    ("repro.serve.gateway.gateway", "GatewayService.seal_reply", "serve.seal_reply"),
    ("repro.serve.session", "SessionManager.unseal_query", "serve.unseal"),
)

#: Calls that only feed counters (too frequent or too small for a span):
#: (module, attribute path, call counter, payload-bytes counter or None).
COUNT_PATCHES = (
    ("repro.core.partition", "ModelPartition.run", "core.partition_runs", None),
    ("repro.autodiff.capture", "GraphRecording.replay", "autodiff.replays", None),
    ("repro.tee.world", "WorldBoundary.enter_secure_world", "tee.world_switches",
     "tee.boundary_bytes"),
    ("repro.tee.world", "WorldBoundary.exit_secure_world", "tee.world_switches",
     "tee.boundary_bytes"),
)

#: Kernel rows of the op profiler reported as per-layer metrics (seconds,
#: calls, GFLOP, GB): the costliest rows of the six workloads.
KERNEL_OPS = ("matmul", "conv2d", "gelu", "add", "mul", "softmax", "relu", "div", "mean")

#: Scheduling rows (seconds and calls only; they carry no FLOP or byte cost):
#: captured replays (serial and wave-parallel rows summed) and the sharded,
#: banded and tree-reduced kernel paths.
SCHEDULING_ROWS = (
    "captured_replay",
    "matmul_treereduce",
    "matmul_grad_sharded",
    "conv2d_sharded",
    "conv2d_grad_sharded",
    "conv2d_treereduce",
)

_DONE = object()


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, owner.__dict__[attribute]


class Tracer:
    """Spans and counters of every interval the tracer was active in."""

    def __init__(self):
        #: Closed spans: (id, name, start, end, parent id or -1, thread id).
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: (start, end) of every active interval; their sum is the traced wall.
        self.intervals: list[tuple[float, float]] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._profiler = None
        self._profile = None

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def timed(self, fn, name: str):
        """``fn`` wrapped so every call records a span named ``name``."""
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident()))

        return wrapper

    def _counted(self, fn, calls: str, payload: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(calls)
            if payload is not None:
                # enter/exit_secure_world(self, payload_bytes=0)
                tracer.count(payload, args[1] if len(args) > 1 else kwargs.get("payload_bytes", 0))
            return fn(*args, **kwargs)

        return wrapper

    def _timed_stream(self, exchange_stream):
        """Time each ``next`` on the reply stream: the server blocked on it."""
        tracer = self

        @functools.wraps(exchange_stream)
        def wrapper(transport, tasks):
            replies = exchange_stream(transport, tasks)
            wait = tracer.timed(lambda: next(replies, _DONE), "fl.wait")

            def stream():
                while (reply := wait()) is not _DONE:
                    yield reply

            return stream()

        return wrapper

    def _observers(self) -> dict[str, object]:
        """Inner wrappers that count bytes, queries or batches as calls pass."""
        count = self.count

        def driver_run(fn):
            def run(*args, **kwargs):
                result = fn(*args, **kwargs)
                count("attacks.sample_queries", float(result.queries_per_sample.sum()))
                return result

            return run

        def encrypt(fn):
            def run(channel, payload):
                count("tee.seal_bytes", len(payload))
                return fn(channel, payload)

            return run

        def decrypt(fn):
            def run(channel, message):
                count("tee.unseal_bytes", len(message.ciphertext))
                return fn(channel, message)

            return run

        def open_update(fn):
            def run(*args, **kwargs):
                update = fn(*args, **kwargs)
                count("fl.update_bytes", update.payload_nbytes)
                return update

            return run

        def serve(fn):
            def run(*args, **kwargs):
                report = fn(*args, **kwargs)
                metrics = report.metrics
                count("serve.batches", metrics["batches"])
                count("serve.batched_samples", metrics["batches"] * metrics["mean_batch_size"])
                count("serve.shed", sum(metrics["shed"].values()))
                count("serve.world_switches", metrics["world_switches"])
                count("serve.completed", metrics["completed"])
                return report

            return run

        return {
            "AttackDriver.run": driver_run,
            "SecureChannel.encrypt": encrypt,
            "SecureChannel.decrypt": decrypt,
            "UpdateEnvelope.open": open_update,
            "GatewayService.serve": serve,
        }

    # ------------------------------------------------------------------ #
    # Activation
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attribute: str, original, replacement) -> None:
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self, partitions=()) -> None:
        """Patch every traced function, plus the stages of ``partitions``."""
        from repro.autodiff.profiler import OpProfiler, profile_ops

        observers = self._observers()
        for module_name, path, name in SPAN_PATCHES:
            owner, attribute, original = _resolve(module_name, path)
            inner = observers[path](original) if path in observers else original
            self._patch(owner, attribute, original, self.timed(inner, name))
        owner, attribute, original = _resolve(
            "repro.fl.runtime.transport", "Transport.exchange_stream"
        )
        self._patch(owner, attribute, original, self._timed_stream(original))
        for module_name, path, calls, payload in COUNT_PATCHES:
            owner, attribute, original = _resolve(module_name, path)
            self._patch(owner, attribute, original, self._counted(original, calls, payload))
        for partition in partitions:
            # Gateway stages are per-instance callables, not methods.
            self._patch(
                partition,
                "stages",
                partition.stages,
                [
                    dataclasses.replace(
                        stage,
                        run=self.timed(
                            stage.run,
                            "serve.stage_secure" if stage.shield_target else "serve.stage_clear",
                        ),
                    )
                    for stage in partition.stages
                ],
            )
        if self._profiler is None:
            self._profiler = OpProfiler()
        self._profile = profile_ops(self._profiler)
        self._profile.__enter__()

    def uninstall(self) -> None:
        self._profile.__exit__(None, None, None)
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    @contextlib.contextmanager
    def active(self, partitions=()):
        """Trace everything the body runs."""
        self.install(partitions)
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.intervals.append((start, time.perf_counter()))
            self.uninstall()

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals)

    def _index(self):
        """(span, inclusive seconds, self seconds, name path) per span."""
        by_id = {span[0]: span for span in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, thread in self.spans:
            if parent >= 0 and by_id[parent][5] == thread:
                child_time[parent] += end - start
        paths: dict[int, tuple[str, ...]] = {}

        def path(span_id: int) -> tuple[str, ...]:
            if span_id not in paths:
                _, name, _, _, parent, _ = by_id[span_id]
                paths[span_id] = (path(parent) if parent >= 0 else ()) + (name,)
            return paths[span_id]

        return [
            (span, span[3] - span[2], span[3] - span[2] - child_time[span[0]], path(span[0]))
            for span in self.spans
        ]

    def unattributed_s(self) -> float:
        """Traced wall-clock not covered by a top-level main-thread span."""
        covered = sum(
            end - start
            for _, _, start, end, parent, thread in self.spans
            if parent < 0 and thread == self.main_thread
        )
        return self.wall_s - covered

    def tree(self) -> list[dict]:
        """Spans aggregated by name path: calls, inclusive and self seconds."""
        rows: dict[tuple[str, ...], dict] = {}
        for _, total, own, path in self._index():
            row = rows.setdefault(path, {"path": path, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += total
            row["self_s"] += own
        return list(rows.values())

    def format_tree(self, title: str) -> str:
        """The layer tree: self time and share of traced wall-clock per path."""
        wall = self.wall_s
        lines = [
            f"layer tree: {title} (traced wall {wall:.3f} s)",
            f"  {'self s':>9} {'share':>7} {'calls':>7}  span",
        ]
        children: dict[tuple[str, ...], list[dict]] = defaultdict(list)
        for row in self.tree():
            children[row["path"][:-1]].append(row)

        def emit(prefix: tuple[str, ...], depth: int) -> None:
            for row in sorted(children[prefix], key=lambda r: -r["total_s"]):
                lines.append(
                    f"  {row['self_s']:>9.3f} {row['self_s'] / wall:>7.1%} {row['calls']:>7}  "
                    f"{'  ' * depth}{row['path'][-1]}"
                )
                emit(row["path"], depth + 1)

        emit((), 0)
        unattributed = self.unattributed_s()
        lines.append(f"  {unattributed:>9.3f} {unattributed / wall:>7.1%} {'':>7}  unattributed")
        return "\n".join(lines)

    def layer_metrics(self, workers: int) -> dict[str, float]:
        """The per-layer metrics: totals over every traced interval.

        ``workers`` is the number of cell workers the engine resolved, the
        denominator of ``engine.idle_share``.
        """
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        fl_eval = 0.0
        for span, duration, self_time, path in self._index():
            name = span[1]
            total[name] += duration
            own[name] += self_time
            calls[name] += 1
            if name == "models.accuracy" and "fl.round" in path:
                fl_eval += duration
        counter = self.counters
        cell_busy = total["eval.engine.cell"]
        engine_run = total["eval.engine.run"]
        captured_runs = calls["autodiff.captured"]
        batches = counter["serve.batches"]
        completed = counter["serve.completed"]
        metrics = {
            "engine.cell_busy_s": cell_busy,
            "engine.idle_share": 1.0 - cell_busy / (workers * engine_run) if cell_busy else 0.0,
            "engine.train_s": total["eval.engine.get_defender"],
            "engine.workers": float(workers),
            "attacks.driver_self_s": own["attacks.driver"],
            "attacks.gradient_calls": float(
                calls["core.view.gradient_clear"] + calls["core.view.gradient_shielded"]
            ),
            "attacks.sample_queries": counter["attacks.sample_queries"],
            "core.view_forward_s": own["core.view.logits"],
            "core.upsample_s": own["core.view.gradient_shielded"],
            "core.partition_runs": counter["core.partition_runs"],
            "autodiff.captured_s": own["autodiff.captured"],
            "autodiff.eager_s": own["autodiff.eager"],
            "autodiff.replay_share": (
                counter["autodiff.replays"] / captured_runs if captured_runs else 0.0
            ),
            "nn.fit_s": total["nn.fit"],
            "nn.optimizer_s": total["nn.optimizer"],
            "tee.seal_s": total["tee.seal"],
            "tee.seal_calls": float(calls["tee.seal"]),
            "tee.seal_bytes": counter["tee.seal_bytes"],
            "tee.unseal_s": total["tee.unseal"],
            "tee.unseal_calls": float(calls["tee.unseal"]),
            "tee.unseal_bytes": counter["tee.unseal_bytes"],
            "tee.attest_s": total["tee.attest"],
            "tee.world_switches": counter["tee.world_switches"],
            "tee.boundary_bytes": counter["tee.boundary_bytes"],
            "fl.client_s": total["fl.client"],
            "fl.wait_s": own["fl.wait"],
            "fl.encode_s": total["fl.encode"],
            "fl.open_s": total["fl.open"],
            "fl.aggregate_s": total["fl.aggregate"],
            "fl.eval_s": fl_eval,
            "fl.update_bytes": counter["fl.update_bytes"],
            "serve.stage_secure_s": total["serve.stage_secure"],
            "serve.stage_clear_s": total["serve.stage_clear"],
            "serve.unseal_s": total["serve.unseal"],
            "serve.serve_self_s": own["serve.serve"],
            "serve.mean_cohort": counter["serve.batched_samples"] / batches if batches else 0.0,
            "serve.shed": counter["serve.shed"],
            "serve.world_switches_per_request": (
                counter["serve.world_switches"] / completed if completed else 0.0
            ),
            "trace.unattributed_s": self.unattributed_s(),
            "trace.wall_s": self.wall_s,
        }
        rows = self.op_rows()
        for op in KERNEL_OPS + SCHEDULING_ROWS:
            matching = [row for name, row in rows.items()
                        if name == op or name == f"{op}_parallel"]
            metrics[f"autodiff.op.{op}.s"] = sum(row["seconds"] for row in matching)
            metrics[f"autodiff.op.{op}.calls"] = float(sum(row["calls"] for row in matching))
            if op in KERNEL_OPS:
                metrics[f"autodiff.op.{op}.gflop"] = sum(row["flops"] for row in matching) / 1e9
                metrics[f"autodiff.op.{op}.gb"] = sum(row["bytes_moved"] for row in matching) / 1e9
        return metrics

    def op_rows(self) -> dict[str, dict]:
        """Every profiler row, costliest first."""
        return self._profiler.as_dict() if self._profiler is not None else {}

    def dump(self, path: Path, **header) -> None:
        """Write spans, intervals, counters and op rows as JSON."""
        payload = {
            **header,
            "span_fields": ["id", "name", "start", "end", "parent", "thread"],
            "intervals": self.intervals,
            "spans": self.spans,
            "counters": dict(self.counters),
            "ops": self.op_rows(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))

