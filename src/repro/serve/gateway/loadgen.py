"""Open-loop load generation: a seeded Poisson arrival process.

*Open loop* means arrivals never wait for the service: the generator draws
the full arrival sequence up front from the offered rate, and the gateway
either keeps up or sheds.  That is the regime where tail latency means
something — a closed-loop driver throttles itself exactly when the system is
slow, hiding the queue growth a p999 is supposed to expose.

Requests carry only integers (arrival time, session index, payload index),
so a workload is three NumPy arrays, not one Python object per request.
Sessions model sealed clients: each request is assigned one of
``num_sessions`` by a seeded draw, so per-session admission quotas see
realistic collisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class OpenLoopWorkload:
    """One generated arrival sequence (all times on the virtual clock, µs)."""

    arrival_us: np.ndarray
    session_index: np.ndarray
    payload_index: np.ndarray
    num_sessions: int
    #: Nominal offered rate (requests/s).
    offered_rps: float = 0.0

    def __post_init__(self):
        if len(self.arrival_us) != len(self.session_index):
            raise ValueError("arrival and session arrays must have equal length")
        if len(self.arrival_us) != len(self.payload_index):
            raise ValueError("arrival and payload arrays must have equal length")

    def __len__(self) -> int:
        return len(self.arrival_us)

    def horizon_us(self) -> float:
        """Virtual time of the last arrival (0 for an empty workload)."""
        return float(self.arrival_us[-1]) if len(self.arrival_us) else 0.0

    def session_id(self, index: int) -> str:
        return f"session-{int(self.session_index[index])}"


def poisson_workload(
    rate_rps: float,
    requests: int,
    num_sessions: int,
    num_payloads: int = 1,
    seed_name: str = "gateway.loadgen",
) -> OpenLoopWorkload:
    """Poisson arrivals at ``rate_rps`` with seeded session / payload draws.

    Determinism comes from :func:`~repro.utils.rng.derive_seed`: the same
    global seed and ``seed_name`` always produce the same workload, which is
    what lets two gateway runs be compared byte for byte.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if requests < 1:
        raise ValueError("requests must be at least 1")
    rng = np.random.default_rng(derive_seed(seed_name))
    inter_us = rng.exponential(scale=1e6 / rate_rps, size=requests)
    arrival_us = np.cumsum(inter_us)
    sessions = rng.integers(0, max(num_sessions, 1), size=requests, dtype=np.int64)
    payloads = rng.integers(0, max(num_payloads, 1), size=requests, dtype=np.int64)
    return OpenLoopWorkload(
        arrival_us=arrival_us,
        session_index=sessions,
        payload_index=payloads,
        num_sessions=max(num_sessions, 1),
        offered_rps=float(rate_rps),
    )
