"""Continuous-batching serving gateway with open-loop load generation.

The gateway is a deterministic, virtual-clock serving frontend over a
partition-staged (optionally shielded) model: admission control after the
sealed handshake (bounded queues, load shedding, per-session fairness),
**continuous batching** at partition-stage boundaries over a fixed replica
pool, and an open-loop Poisson load generator.

Quick start::

    from repro.serve.gateway import (
        GatewayPolicy, ServingGateway, calibrate_stage_costs, poisson_workload,
    )

    costs = calibrate_stage_costs(partition, sample)
    gateway = ServingGateway(costs, GatewayPolicy(policy="continuous", replicas=2))
    load = poisson_workload(rate_rps=0.8 * gateway.capacity_rps(),
                            requests=100_000, num_sessions=10_000)
    report = gateway.simulate(load)
    report.percentiles()["p999_us"]   # deterministic: same seed ⇒ same digest
"""

from repro.serve.gateway.admission import (
    SHED_REASONS,
    AdmissionController,
    AdmissionPolicy,
)
from repro.serve.gateway.continuous import (
    GATEWAY_POLICIES,
    GatewayCore,
    GatewayPolicy,
    GatewayRequest,
)
from repro.serve.gateway.costs import StageCost, StageCostModel, calibrate_stage_costs
from repro.serve.gateway.events import EventLoop
from repro.serve.gateway.gateway import GatewayReport, GatewayService, ServingGateway
from repro.serve.gateway.latency import GatewayMetrics, LatencyHistogram
from repro.serve.gateway.loadgen import OpenLoopWorkload, poisson_workload

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "EventLoop",
    "GATEWAY_POLICIES",
    "GatewayCore",
    "GatewayMetrics",
    "GatewayPolicy",
    "GatewayReport",
    "GatewayRequest",
    "GatewayService",
    "LatencyHistogram",
    "OpenLoopWorkload",
    "SHED_REASONS",
    "ServingGateway",
    "StageCost",
    "StageCostModel",
    "calibrate_stage_costs",
    "poisson_workload",
]
