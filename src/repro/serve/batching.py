"""Request and reply types of the serving gateway.

A client hands :class:`~repro.serve.gateway.GatewayService` one
:class:`InferenceRequest` per sample (or a sealed query that the gateway
turns into one after admission); every completed request comes back as one
:class:`InferenceReply`.  Arrival times are *virtual* (microseconds on the
workload's clock), so the gateway's scheduling decisions are a pure function
of the workload, independent of host load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class InferenceRequest:
    """One inference query: a single sample plus its arrival metadata."""

    request_id: int
    payload: np.ndarray
    #: Arrival time on the workload's virtual clock (µs).
    arrival_us: float = 0.0
    #: Session the query arrived on (sealed queries only).
    session_id: str | None = None


@dataclass
class InferenceReply:
    """The gateway's answer to one completed request."""

    request_id: int
    prediction: int
    logits: np.ndarray
    #: Arrival-to-completion time on the virtual clock (µs): queue wait plus
    #: stage service, the stages' world-switch crossings included.
    latency_us: float
    #: Size of the stem cohort (a static batch under the static policy) the
    #: request entered with; the gateway never pads a cohort.
    batch_size: int
    #: Even share of the drain's TEE world switches (total / completed).
    world_switches: float
    session_id: str | None = None
