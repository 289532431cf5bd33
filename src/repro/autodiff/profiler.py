"""Per-op execution profiler fed by the op dispatcher.

When a profiler is active, every :func:`repro.autodiff.ops.apply` dispatch
records the op's name, wall-clock kernel time, and the FLOP / byte cost the
registry's metadata assigns to the call.  Captured replays bypass the
dispatcher (that is the point of capturing), so the recordings report them
wholesale under the pseudo-op ``captured_replay``, gradient and forward-only
replays alike.

Activation is *process-wide* (guarded by a lock), not thread-local: the
experiment engine fans cells out over worker threads and ``repro.run
--profile`` wants their kernels in one table.  Profiling is off the hot path
when inactive — the dispatcher does one module-global ``is None`` check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class OpStat:
    """Accumulated counters for one op name."""

    calls: int = 0
    seconds: float = 0.0
    flops: int = 0
    bytes_moved: int = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
        }


@dataclass
class OpProfiler:
    """Thread-safe per-op counters (counts, seconds, FLOPs, bytes)."""

    stats: dict[str, OpStat] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, name: str, seconds: float, flops: int, bytes_moved: int) -> None:
        """Add one kernel execution to the op's counters."""
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = OpStat()
            stat.calls += 1
            stat.seconds += seconds
            stat.flops += flops
            stat.bytes_moved += bytes_moved

    def as_dict(self) -> dict[str, dict]:
        """JSON-able snapshot, ops sorted by time spent (descending)."""
        with self._lock:
            items = sorted(self.stats.items(), key=lambda kv: kv[1].seconds, reverse=True)
            return {name: stat.as_dict() for name, stat in items}

    def total_seconds(self) -> float:
        with self._lock:
            return sum(stat.seconds for stat in self.stats.values())

    def table(self, top: int = 20) -> str:
        """Human-readable profile table for the CLI."""
        rows = list(self.as_dict().items())[:top]
        lines = [
            f"{'op':<22}{'calls':>10}{'seconds':>10}{'GFLOP':>10}{'GB moved':>10}"
        ]
        for name, stat in rows:
            lines.append(
                f"{name:<22}{stat['calls']:>10}{stat['seconds']:>10.3f}"
                f"{stat['flops'] / 1e9:>10.3f}{stat['bytes_moved'] / 1e9:>10.3f}"
            )
        return "\n".join(lines)


_LOCK = threading.Lock()
_ACTIVE: OpProfiler | None = None


def active_profiler() -> OpProfiler | None:
    """The currently active profiler, or None (the dispatcher's fast check)."""
    return _ACTIVE


class profile_ops:
    """Context manager activating an :class:`OpProfiler` process-wide.

    Nesting reuses the outer profiler so inner scopes don't silently steal
    recordings from an outer ``--profile`` run.
    """

    def __init__(self, profiler: OpProfiler | None = None) -> None:
        self.profiler = profiler if profiler is not None else OpProfiler()
        self._installed = False

    def __enter__(self) -> OpProfiler:
        global _ACTIVE
        with _LOCK:
            if _ACTIVE is None:
                _ACTIVE = self.profiler
                self._installed = True
            else:
                self.profiler = _ACTIVE
        return self.profiler

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        with _LOCK:
            if self._installed:
                _ACTIVE = None
                self._installed = False
