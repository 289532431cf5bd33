"""Simple wall-clock timing utilities."""

from __future__ import annotations

import time


class Timer:
    """Context-manager timer accumulating elapsed wall-clock seconds.

    A single timer can be entered multiple times; ``elapsed`` accumulates
    across uses, which is convenient for timing repeated phases of an
    experiment (e.g. per-round enclave transfer time).
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.calls = 0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._start is not None:
            self.elapsed += time.perf_counter() - self._start
            self.calls += 1
            self._start = None

    def reset(self) -> None:
        """Zero the accumulated time and call count."""
        self.elapsed = 0.0
        self.calls = 0
        self._start = None

    @property
    def mean(self) -> float:
        """Mean elapsed time per completed ``with`` block (0 if never used)."""
        if self.calls == 0:
            return 0.0
        return self.elapsed / self.calls
