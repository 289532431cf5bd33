"""Parallel execution of experiment cells.

Independent (model × attack × shield-setting) cells fan out over a thread or
process pool; because every cell draws its randomness from a per-task seed
(see :mod:`repro.eval.engine.cells`) the three backends produce identical
results, so the backend is purely a throughput choice:

* ``serial`` — run inline; the default when only one worker is available.
* ``thread`` — ``ThreadPoolExecutor``; NumPy releases the GIL in its large
  kernels, so attack loops overlap reasonably well.
* ``process`` — fork-based ``ProcessPoolExecutor``; full parallelism at the
  cost of pickling the payloads (model ``state_dict`` arrays included).

``REPRO_ENGINE_BACKEND`` and ``REPRO_ENGINE_WORKERS`` supply process-wide
*defaults* (e.g. ``REPRO_ENGINE_WORKERS=8 pytest benchmarks/``); an explicit
``ExecutorConfig`` value — such as the CLI's ``--backend serial`` — always
wins over the environment.  Requesting a parallel backend without a worker
count uses one worker per CPU core.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.utils.logging import get_logger

_LOGGER = get_logger("eval.engine.executor")

BACKENDS = ("auto", "serial", "thread", "process")


@dataclass(frozen=True)
class ExecutorConfig:
    """How cells are fanned out."""

    backend: str = "auto"
    max_workers: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")


def resolve_executor_config(config: ExecutorConfig | None = None) -> ExecutorConfig:
    """Fill unset fields of ``config`` from the environment.

    Explicit values (a backend other than ``auto``, a non-None worker count)
    take precedence over ``REPRO_ENGINE_BACKEND`` / ``REPRO_ENGINE_WORKERS``.
    """
    config = config if config is not None else ExecutorConfig()
    backend = config.backend
    if backend == "auto":
        backend = os.environ.get("REPRO_ENGINE_BACKEND", "auto")
    max_workers = config.max_workers
    if max_workers is None:
        workers_env = os.environ.get("REPRO_ENGINE_WORKERS")
        max_workers = int(workers_env) if workers_env else None
    return ExecutorConfig(backend=backend, max_workers=max_workers)


class CellExecutor:
    """Order-preserving map of a cell function over payloads."""

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = resolve_executor_config(config)

    def resolve(self, num_tasks: int) -> tuple[str, int]:
        """The (backend, workers) a batch of ``num_tasks`` would actually use."""
        backend = self.config.backend
        workers = self.config.max_workers
        if workers is None:
            # An explicitly parallel backend without a worker count means
            # "use the machine": one worker per core.
            workers = (os.cpu_count() or 1) if backend in ("thread", "process") else 1
        workers = max(1, min(workers, num_tasks)) if num_tasks else 1
        if backend == "auto":
            backend = "thread" if workers > 1 else "serial"
        if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
            _LOGGER.warning("fork start method unavailable; falling back to threads")
            backend = "thread"
        if workers == 1:
            backend = "serial"
        return backend, workers

    def map(self, fn: Callable[[dict], dict], payloads: Sequence[dict]) -> list[dict]:
        """Run ``fn`` over every payload, preserving input order.

        ``fn`` must be a module-level function and the payloads picklable when
        the process backend is selected.
        """
        payloads = list(payloads)
        backend, workers = self.resolve(len(payloads))
        if backend == "serial":
            return [fn(payload) for payload in payloads]
        _LOGGER.info("fanning out %d cells over %d %s workers", len(payloads), workers, backend)
        if backend == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, payloads))
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            return list(pool.map(fn, payloads))

    def imap(self, fn: Callable[[dict], dict], payloads: Sequence[dict]):
        """Lazily yield ``fn(payload)`` results in input order as they complete.

        The streaming counterpart of :meth:`map`: on the serial backend each
        payload is only executed when the consumer asks for its result, and
        on the pooled backends every payload is submitted up front but
        results are yielded head-of-line — the consumer sees them in input
        order regardless of which worker finishes first, which is what keeps
        order-sensitive reductions deterministic.
        """
        payloads = list(payloads)
        backend, workers = self.resolve(len(payloads))
        if backend == "serial":
            for payload in payloads:
                yield fn(payload)
            return
        _LOGGER.info("streaming %d cells over %d %s workers", len(payloads), workers, backend)
        if backend == "thread":
            pool = ThreadPoolExecutor(max_workers=workers)
        else:
            context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            futures = [pool.submit(fn, payload) for payload in payloads]
            for future in futures:
                yield future.result()
        finally:
            pool.shutdown(wait=True)
