"""Shielded inference serving runtime.

The deployment story of the paper — a TEE-shielded defender answering
untrusted inference queries — as a serving stack: partition-staged models
(enclave-resident stem, normal-world trunk, per-crossing cost accounting),
dynamic micro-batching with padding to captured shapes, grad-free
captured-forward replay on one in-process replica, and attestation-gated
sealed query sessions.

Quick start::

    from repro.serve import BatchingPolicy, ShieldedInferenceService, uniform_workload

    service = ShieldedInferenceService(model, BatchingPolicy(max_batch=8))
    report = service.serve(uniform_workload(test_images, inter_arrival_us=500))
    report.predictions()          # one per request, arrival order
    report.stats.throughput_rps   # measured
    report.stats.world_switches_per_request
"""

from repro.serve.batching import (
    BatchingPolicy,
    InferenceReply,
    InferenceRequest,
    MicroBatch,
    MicroBatcher,
    uniform_workload,
)
from repro.serve.gateway import (
    AdmissionPolicy,
    GatewayPolicy,
    GatewayReport,
    GatewayService,
    ServingGateway,
    calibrate_stage_costs,
    poisson_workload,
)
from repro.serve.runtime import (
    ServingReplica,
    ServingReport,
    ServingStats,
    ShieldedInferenceService,
)
from repro.serve.session import (
    SealedQuery,
    SealedReply,
    ServingSession,
    SessionManager,
)

__all__ = [
    "AdmissionPolicy",
    "BatchingPolicy",
    "GatewayPolicy",
    "GatewayReport",
    "GatewayService",
    "InferenceReply",
    "InferenceRequest",
    "MicroBatch",
    "MicroBatcher",
    "SealedQuery",
    "SealedReply",
    "ServingGateway",
    "ServingReplica",
    "ServingReport",
    "ServingSession",
    "ServingStats",
    "SessionManager",
    "ShieldedInferenceService",
    "calibrate_stage_costs",
    "poisson_workload",
    "uniform_workload",
]
