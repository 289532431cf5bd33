"""Federated learning substrate: runtime, clients, aggregation, poisoning."""

from repro.fl.aggregation import (
    AGGREGATION_RULES,
    FedavgStream,
    MedianStream,
    StreamingAggregator,
    TrimmedMeanStream,
)
from repro.fl.client import (
    ClientConfig,
    CompromisedClient,
    HonestClient,
    ModelPoisoningClient,
)
from repro.fl.messages import GlobalModelBroadcast, ModelUpdate, RoundResult
from repro.fl.poisoning import add_backdoor_trigger, poison_with_backdoor
from repro.fl.runtime import (
    AttestationGate,
    BroadcastEnvelope,
    ClientSession,
    ClientTask,
    FederatedRunResult,
    FederationRuntime,
    Participant,
    Transport,
    UpdateEnvelope,
    enroll_and_attest,
)

__all__ = [
    "AGGREGATION_RULES",
    "AttestationGate",
    "BroadcastEnvelope",
    "ClientConfig",
    "ClientSession",
    "ClientTask",
    "CompromisedClient",
    "FederatedRunResult",
    "FederationRuntime",
    "FedavgStream",
    "GlobalModelBroadcast",
    "HonestClient",
    "MedianStream",
    "ModelPoisoningClient",
    "ModelUpdate",
    "Participant",
    "RoundResult",
    "StreamingAggregator",
    "Transport",
    "TrimmedMeanStream",
    "UpdateEnvelope",
    "add_backdoor_trigger",
    "enroll_and_attest",
    "poison_with_backdoor",
]
