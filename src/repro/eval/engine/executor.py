"""Parallel execution of experiment cells.

Independent (model × attack × shield-setting) cells fan out over a fork-based
process pool; because every cell draws its randomness from a per-task seed
(see :mod:`repro.eval.engine.cells`) both backends produce identical results,
so the backend is purely a throughput choice:

* ``serial`` — run inline in the caller.
* ``process`` — fork-based ``ProcessPoolExecutor``; full parallelism at the
  cost of one fork per call and of pickling the results back.
* ``auto`` (the default) — ``process`` with one worker per core, capped at
  the number of tasks; ``serial`` when that leaves one worker or the
  platform cannot fork.

The task callable and the payloads reach each worker through the fork,
never through pickle: wrapped or patched functions run the same as
module-level ones, payloads may hold unpicklable objects, and the parent
spends no time serialising them.  Workers are handed ``(start, stop)``
ranges of the payload list, in input order, and pickle back only the
results of their range.
Each worker also pins NumPy's bundled OpenBLAS to its share of the cores
(``cpu_count // workers`` threads): OpenBLAS otherwise starts one thread per
core in every worker, and the oversubscribed pool runs slower than serial.
The parent's BLAS is left at its default, which serial code runs fastest
at.  No kernel or reduction order depends on the thread count, so outputs
stay byte-identical.

``REPRO_ENGINE_BACKEND`` and ``REPRO_ENGINE_WORKERS`` supply process-wide
*defaults* (e.g. ``REPRO_ENGINE_WORKERS=8 pytest benchmarks/``); an explicit
``ExecutorConfig`` value — such as the CLI's ``--backend serial`` — always
wins over the environment.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.utils.logging import get_logger

_LOGGER = get_logger("eval.engine.executor")

BACKENDS = ("auto", "serial", "process")


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


@functools.lru_cache(maxsize=None)
def _openblas():
    """NumPy's bundled OpenBLAS, or ``None`` (logged once) without a thread setter."""
    pattern = os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            library = ctypes.CDLL(path)
            setter = library.scipy_openblas_set_num_threads64_
            getter = library.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return library
    _LOGGER.warning("NumPy's OpenBLAS thread setter not found; pool workers keep BLAS defaults")
    return None


#: The callable a pool worker runs and the payloads it runs over.  Set only
#: in workers, by :func:`_init_worker`; the parent never writes them.
_TASK: Callable | None = None
_PAYLOADS: Sequence = ()


def _init_worker(fn: Callable, payloads: Sequence, blas_threads: int) -> None:
    global _TASK, _PAYLOADS
    _TASK, _PAYLOADS = fn, payloads
    library = _openblas()
    if library is not None:
        library.scipy_openblas_set_num_threads64_(blas_threads)


def _run_chunk(start: int, stop: int) -> tuple[list, Exception | None]:
    """Results of ``payloads[start:stop]``, up to and with the first error.

    The error is returned rather than raised so the results before it still
    reach the parent, which yields them and then raises the error.
    """
    results = []
    for payload in _PAYLOADS[start:stop]:
        try:
            results.append(_TASK(payload))
        except Exception as error:
            error.add_note("".join(traceback.format_exception(error)).rstrip())
            return results, error
    return results, None


def _fork_pool(fn: Callable, payloads: Sequence, workers: int) -> ProcessPoolExecutor:
    """A fork pool of ``workers`` that run ``fn`` over ``payloads`` on their share of the cores.

    ``fn`` and ``payloads`` travel in ``initargs``, which a fork hands to the
    workers without pickling.
    """
    _openblas()  # look the library up once, before the workers fork
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn, payloads, max(1, (os.cpu_count() or 1) // workers)),
    )


def _chunk_size(num_tasks: int, workers: int) -> int:
    """Payloads per submit: about eight chunks per worker, one payload when tasks are few."""
    return max(1, num_tasks // (workers * 8))


class CellExecutor:
    """Order-preserving map of a cell function over payloads."""

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = resolve_executor_config(config)

    def resolve(self, num_tasks: int) -> tuple[str, int]:
        """The (backend, workers) a batch of ``num_tasks`` would actually use."""
        backend = self.config.backend
        workers = self.config.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        workers = max(1, min(workers, num_tasks)) if num_tasks else 1
        if backend == "serial" or workers == 1:
            return "serial", 1
        if "fork" not in multiprocessing.get_all_start_methods():
            _LOGGER.warning("fork start method unavailable; running serially")
            return "serial", 1
        return "process", workers

    def map(self, fn: Callable[[dict], dict], payloads: Sequence[dict]) -> list[dict]:
        """Run ``fn`` over every payload, preserving input order.

        The results must be picklable when the process backend is selected;
        ``fn`` and the payloads reach the workers through the fork.
        """
        return list(self.imap(fn, payloads))

    def imap(self, fn: Callable[[dict], dict], payloads: Sequence[dict]):
        """Lazily yield ``fn(payload)`` results in input order as they complete.

        The streaming counterpart of :meth:`map`: on the serial backend each
        payload is only executed when the consumer asks for its result, and
        on the process backend every chunk of payloads is submitted up front
        but results are yielded head-of-line — the consumer sees them in
        input order regardless of which worker finishes first, which is what
        keeps order-sensitive reductions deterministic.  When a payload
        raises, every result before it is yielded first, then its error is
        raised, as on the serial backend.
        """
        payloads = list(payloads)
        backend, workers = self.resolve(len(payloads))
        if backend == "serial":
            for payload in payloads:
                yield fn(payload)
            return
        _LOGGER.info("running %d cells over %d process workers", len(payloads), workers)
        pool = _fork_pool(fn, payloads, workers)
        try:
            size = _chunk_size(len(payloads), workers)
            futures = [
                pool.submit(_run_chunk, start, start + size)
                for start in range(0, len(payloads), size)
            ]
            for future in futures:
                results, error = future.result()
                yield from results
                if error is not None:
                    raise error
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
