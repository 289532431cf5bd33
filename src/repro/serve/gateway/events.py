"""Deterministic virtual-clock event loop for the serving gateway.

The gateway never sleeps on the host clock: every arrival, batch cut and
stage completion is an event on a *virtual* microsecond clock, executed in
strict ``(time, sequence)`` order.  Two runs with the same workload therefore
interleave identically — down to the byte — regardless of host load, thread
count or wall-clock jitter, which is what makes the tail-latency numbers
reproducible enough to gate CI on.

Handlers are plain callables; an event scheduled *at the current time* runs
after every already-scheduled event of that timestamp (FIFO within a tick).
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventLoop:
    """A min-heap of timed callbacks driven by a virtual microsecond clock."""

    def __init__(self, start_us: float = 0.0):
        self.now_us = float(start_us)
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def at(self, time_us: float, handler: Callable[[], None]) -> None:
        """Schedule ``handler`` at an absolute virtual time."""
        if time_us < self.now_us:
            raise ValueError(
                f"cannot schedule at {time_us}us: the clock is already at {self.now_us}us"
            )
        heapq.heappush(self._heap, (float(time_us), self._sequence, handler))
        self._sequence += 1

    def after(self, delay_us: float, handler: Callable[[], None]) -> None:
        """Schedule ``handler`` after a virtual delay from *now*."""
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.at(self.now_us + delay_us, handler)

    def run(self, until_us: float | None = None, max_events: int | None = None) -> int:
        """Process events in (time, sequence) order; returns the count run.

        Stops when the heap is empty, when the next event lies beyond
        ``until_us`` (the clock then advances to ``until_us`` exactly), or
        after ``max_events`` events (a guard against runaway feedback loops).
        """
        ran = 0
        while self._heap:
            if max_events is not None and ran >= max_events:
                break
            time_us, _, handler = self._heap[0]
            if until_us is not None and time_us > until_us:
                break
            heapq.heappop(self._heap)
            self.now_us = time_us
            handler()
            ran += 1
        if until_us is not None and until_us > self.now_us:
            self.now_us = float(until_us)
        self.processed += ran
        return ran
