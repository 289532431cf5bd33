"""Shielded inference serving gateway.

The deployment story of the paper — a TEE-shielded defender answering
untrusted inference queries — as one serving path: a partition-staged model
(enclave-resident stem, normal-world trunk, per-crossing cost accounting)
behind attestation-gated sealed query sessions, scheduled by the
continuous-batching :class:`~repro.serve.gateway.GatewayService`.  Each
cohort runs as one batched stage call; every reply keeps the argmax of a
single-request eager forward with logits within a stated ulp bound of it,
and a cohort of one is byte-identical to it, whatever the scheduling
policy.

Quick start::

    from repro.serve import GatewayPolicy, GatewayService, InferenceRequest

    service = GatewayService(model, GatewayPolicy(policy="continuous", max_batch=8))
    session = service.open_session("client")
    for index, image in enumerate(test_images):
        service.submit_sealed(index, session.seal_query(image), arrival_us=500.0 * index)
    report = service.serve()
    report.predictions()                 # one per admitted request, arrival order
    report.metrics["world_switches"]     # one enter/exit pair per stem cohort
"""

from repro.serve.batching import InferenceReply, InferenceRequest
from repro.serve.gateway import (
    AdmissionPolicy,
    GatewayPolicy,
    GatewayReport,
    GatewayService,
    ServingGateway,
    calibrate_stage_costs,
    poisson_workload,
)
from repro.serve.session import (
    SealedQuery,
    SealedReply,
    ServingSession,
    SessionManager,
)

__all__ = [
    "AdmissionPolicy",
    "GatewayPolicy",
    "GatewayReport",
    "GatewayService",
    "InferenceReply",
    "InferenceRequest",
    "SealedQuery",
    "SealedReply",
    "ServingGateway",
    "ServingSession",
    "SessionManager",
    "calibrate_stage_costs",
    "poisson_workload",
]
