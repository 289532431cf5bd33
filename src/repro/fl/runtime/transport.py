"""Pluggable transports carrying client tasks to participants and back.

A :class:`Transport` is an order-preserving exchange of
:class:`~repro.fl.runtime.participant.ClientTask` values for
:class:`~repro.fl.runtime.envelopes.UpdateEnvelope` replies.  The concrete
backends generalise the experiment engine's
:class:`~repro.eval.engine.executor.CellExecutor` (same backend names, same
environment defaults, same order guarantees, same BLAS-pinned fork pool) to
federation traffic:

* :class:`InProcessTransport` — clients run inline in the caller;
* ``get_transport("process")`` — fork-based process pool; tasks and replies
  are pickled, so a round models real serialisation costs;
* ``get_transport("auto")`` — the engine's default: a process pool with one
  worker per core, serial when that leaves one worker.

Because every task carries its own derived seed (see
:func:`~repro.fl.runtime.participant.run_client_task`), every backend
produces bit-identical round histories — the transport is purely a
throughput/deployment choice.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence

from repro.eval.engine.executor import BACKENDS, CellExecutor, ExecutorConfig
from repro.fl.runtime.envelopes import UpdateEnvelope
from repro.fl.runtime.participant import ClientTask, run_client_task

#: Names accepted by :func:`get_transport` (the executor's backend names).
TRANSPORTS = BACKENDS


class Transport:
    """Order-preserving exchange of client tasks for update envelopes.

    Beyond the FL-typed :meth:`exchange`, every transport exposes a generic
    order-preserving :meth:`map`.
    """

    name = "base"

    def map(self, fn: Callable, items: Sequence) -> list:
        """Order-preserving map of ``fn`` over ``items`` on this transport."""
        raise NotImplementedError

    def imap(self, fn: Callable, items: Sequence) -> Iterator:
        """Lazily yield ``fn(item)`` results in input order as they complete.

        The default implementation falls back to the buffered :meth:`map`;
        executor-backed transports stream for real, so a consumer can reduce
        replies incrementally while later items are still in flight.
        """
        yield from self.map(fn, items)

    def exchange(self, tasks: Sequence[ClientTask]) -> list[UpdateEnvelope]:
        """FL traffic: exchange client tasks for their update envelopes."""
        return self.map(run_client_task, tasks)

    def exchange_stream(self, tasks: Sequence[ClientTask]) -> Iterator[UpdateEnvelope]:
        """Streamed FL traffic: yield update envelopes in participant order.

        Replies are consumed as the transport yields them, so the server can
        unseal and aggregate incrementally instead of holding every opened
        update in memory before reducing.  Order is head-of-line (participant
        order) on every backend, which keeps streamed reductions
        byte-identical to the buffered :meth:`exchange` path.
        """
        yield from self.imap(run_client_task, tasks)

    def describe(self) -> dict:
        """JSON-able description for run records."""
        return {"transport": self.name}


class ExecutorTransport(Transport):
    """Transport over the engine's cell executor (any of its backends)."""

    def __init__(self, backend: str = "serial", max_workers: int | None = None):
        self._executor = CellExecutor(ExecutorConfig(backend=backend, max_workers=max_workers))
        self.max_workers = self._executor.config.max_workers
        # Initial estimate of the backend ``auto`` resolves to; refined to
        # the exact choice (including the small-batch serial downgrade) on
        # every exchange, so run records name what actually ran.
        self.name, _ = self._executor.resolve(self.max_workers or os.cpu_count() or 1)

    def map(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        self.name, _ = self._executor.resolve(len(items))
        return self._executor.map(fn, items)

    def imap(self, fn: Callable, items: Sequence) -> Iterator:
        items = list(items)
        self.name, _ = self._executor.resolve(len(items))
        return self._executor.imap(fn, items)

    def describe(self) -> dict:
        return {"transport": self.name, "max_workers": self.max_workers}


class InProcessTransport(ExecutorTransport):
    """Run every client inline, in participant order."""

    def __init__(self):
        super().__init__(backend="serial")


def get_transport(name: str = "serial", max_workers: int | None = None) -> Transport:
    """Build a transport by executor backend name (``auto`` resolves lazily)."""
    if name not in TRANSPORTS:
        raise KeyError(f"unknown transport {name!r}; expected one of {TRANSPORTS}")
    return ExecutorTransport(backend=name, max_workers=max_workers)


def transport_from_executor(executor: CellExecutor) -> Transport:
    """Reuse an engine executor's resolved configuration as a transport."""
    config = executor.config
    return ExecutorTransport(backend=config.backend, max_workers=config.max_workers)
