"""The transport carrying client tasks to participants and back.

A :class:`Transport` is an order-preserving exchange of
:class:`~repro.fl.runtime.participant.ClientTask` values for
:class:`~repro.fl.runtime.envelopes.UpdateEnvelope` replies over the
experiment engine's :class:`~repro.eval.engine.executor.CellExecutor` (same
backend names, same environment defaults, same order guarantees, same
BLAS-pinned fork pool):

* ``serial`` — clients run inline in the caller;
* ``process`` — fork-based process pool; the tasks reach the workers
  through the fork, and only the replies are pickled on their way back,
  as a real server receives them over the wire;
* ``auto`` — the engine's default: a process pool with one worker per core,
  serial when that leaves one worker.

Because every task carries its own derived seed (see
:func:`~repro.fl.runtime.participant.run_client_task`), every backend
produces bit-identical round histories — the transport is purely a
throughput/deployment choice.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from repro.eval.engine.executor import CellExecutor, ExecutorConfig
from repro.fl.runtime.envelopes import UpdateEnvelope
from repro.fl.runtime.participant import ClientTask, run_client_task


class Transport:
    """Order-preserving exchange of client tasks for update envelopes.

    ``backend`` is one of the executor's backend names; an unknown name
    raises the executor's ``ValueError`` here, before any client trains.
    """

    def __init__(self, backend: str = "serial", max_workers: int | None = None):
        self._executor = CellExecutor(ExecutorConfig(backend=backend, max_workers=max_workers))
        self.max_workers = self._executor.config.max_workers
        # Initial estimate of the backend ``auto`` resolves to; refined to
        # the exact choice (including the small-batch serial downgrade) on
        # every exchange, so run records name what actually ran.
        self.name, _ = self._executor.resolve(self.max_workers or os.cpu_count() or 1)

    def exchange_stream(self, tasks: Sequence[ClientTask]) -> Iterator[UpdateEnvelope]:
        """Yield the tasks' update envelopes in participant order.

        Replies are consumed as the transport yields them, so the server can
        unseal and aggregate incrementally instead of holding every opened
        update in memory before reducing.  Order is head-of-line (participant
        order) on every backend, which keeps streamed reductions
        byte-identical across backends.
        """
        tasks = list(tasks)
        self.name, _ = self._executor.resolve(len(tasks))
        yield from self._executor.imap(run_client_task, tasks)

    def describe(self) -> dict:
        """JSON-able description for run records."""
        return {"transport": self.name, "max_workers": self.max_workers}
