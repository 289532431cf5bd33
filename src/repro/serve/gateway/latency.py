"""Latency recording for the gateway: log-binned histograms and SLO metrics.

The load generator pushes 10^4–10^6 requests through a simulation, so
latencies are recorded into a fixed log-spaced histogram (HdrHistogram
style) instead of a per-request list: constant memory, O(1) record, and —
because bin edges are a pure function of the bin parameters — a histogram
whose byte serialization is identical across runs whenever the simulation
itself was deterministic.  ``digest()`` hashes exactly that property for the
reproducibility tests.

Quantiles are resolved to the *upper edge* of the bin containing the target
rank: a deterministic, slightly conservative estimate whose relative error
is bounded by the bin growth factor (2^(1/8) ≈ 9% per bin by default).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


class LatencyHistogram:
    """Fixed log-spaced latency histogram over microsecond values."""

    def __init__(self, bins_per_octave: int = 8, max_octaves: int = 40):
        self.bins_per_octave = int(bins_per_octave)
        #: counts[0] holds sub-microsecond values; the last bin is unbounded.
        self.counts = np.zeros(self.bins_per_octave * max_octaves + 2, dtype=np.int64)
        self.total = 0
        self.max_us = 0.0
        self.sum_us = 0.0

    def _index(self, latency_us: float) -> int:
        if latency_us < 1.0:
            return 0
        index = 1 + int(math.floor(self.bins_per_octave * math.log2(latency_us)))
        return min(index, len(self.counts) - 1)

    def _upper_edge(self, index: int) -> float:
        if index <= 0:
            return 1.0
        return float(2.0 ** (index / self.bins_per_octave))

    def record(self, latency_us: float) -> None:
        self.counts[self._index(latency_us)] += 1
        self.total += 1
        self.sum_us += latency_us
        if latency_us > self.max_us:
            self.max_us = latency_us

    def quantile(self, q: float) -> float:
        """Upper bin edge covering the ``q``-quantile (0 when empty)."""
        if self.total == 0:
            return 0.0
        rank = math.ceil(q * self.total)
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, max(rank, 1)))
        # The top bin is unbounded: report the exact maximum seen instead.
        if index >= len(self.counts) - 1:
            return self.max_us
        return min(self._upper_edge(index), self.max_us if self.max_us > 0 else math.inf)

    def mean(self) -> float:
        return self.sum_us / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        if other.bins_per_octave != self.bins_per_octave or len(other.counts) != len(self.counts):
            raise ValueError("cannot merge histograms with different bin layouts")
        self.counts += other.counts
        self.total += other.total
        self.sum_us += other.sum_us
        self.max_us = max(self.max_us, other.max_us)

    def digest(self) -> str:
        """SHA-256 over the bin layout and counts: the byte-identity probe."""
        payload = (
            f"bpo={self.bins_per_octave};n={len(self.counts)};"
            f"total={self.total};max={self.max_us!r};sum={self.sum_us!r};"
        ).encode() + self.counts.tobytes()
        return hashlib.sha256(payload).hexdigest()

    def percentiles(self) -> dict[str, float]:
        """The serving percentiles every report carries."""
        return {
            "p50_us": self.quantile(0.50),
            "p90_us": self.quantile(0.90),
            "p99_us": self.quantile(0.99),
            "p999_us": self.quantile(0.999),
            "mean_us": self.mean(),
            "max_us": self.max_us,
        }


@dataclass
class GatewayMetrics:
    """Aggregate accounting of one gateway run (simulated or real)."""

    offered: int = 0
    admitted: int = 0
    completed: int = 0
    #: Admitted requests dropped at first execution (a sealed query that
    #: fails to open); ``completed + rejected == admitted``.
    rejected: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    #: Completions within the SLO target (goodput numerator).
    within_slo: int = 0
    slo_us: float = 0.0
    horizon_us: float = 0.0
    batches: int = 0
    batched_samples: int = 0
    stage_executions: int = 0
    world_switches: int = 0
    boundary_time_us: float = 0.0
    replica_busy_us: float = 0.0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def shed_total(self) -> int:
        return sum(self.shed.values())

    def record_shed(self, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1

    def as_dict(self) -> dict:
        seconds = self.horizon_us / 1e6 if self.horizon_us else 0.0
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": dict(sorted(self.shed.items())),
            "shed_rate": self.shed_total() / self.offered if self.offered else 0.0,
            "slo_us": self.slo_us,
            "slo_attainment": self.within_slo / self.completed if self.completed else 0.0,
            "goodput_rps": self.within_slo / seconds if seconds else 0.0,
            "throughput_rps": self.completed / seconds if seconds else 0.0,
            "horizon_us": self.horizon_us,
            "batches": self.batches,
            "mean_batch_size": self.batched_samples / self.batches if self.batches else 0.0,
            "stage_executions": self.stage_executions,
            "world_switches": self.world_switches,
            "boundary_time_us": self.boundary_time_us,
            "latency": self.latency.percentiles(),
            "latency_digest": self.latency.digest(),
        }
