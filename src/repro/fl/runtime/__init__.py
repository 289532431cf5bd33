"""Federation runtime: transport-abstracted, TEE-attested FL rounds.

The runtime decouples *what* a federated round does (broadcast, local
update, aggregate, evaluate) from *how* its messages move (in-process or
over a process pool) and *whom* the server trusts (attestation-gated
secure sessions for enclave-backed clients).  See
:class:`~repro.fl.runtime.runtime.FederationRuntime`, the one entry point
for running rounds.
"""

from repro.fl.runtime.attested import AttestationGate, ClientSession, enroll_and_attest
from repro.fl.runtime.envelopes import (
    COMPRESSIONS,
    BroadcastEnvelope,
    DeltaState,
    SealedState,
    UpdateEnvelope,
    apply_delta,
    decode_state,
    encode_state,
    make_delta,
    seal_state,
    unseal_state,
)
from repro.fl.runtime.participant import (
    ClientTask,
    Participant,
    client_task_seed,
    run_client_task,
)
from repro.fl.runtime.runtime import (
    FederatedRunResult,
    FederationRuntime,
    RoundHooks,
    SecureTrafficStats,
    sample_by_fraction,
)
from repro.fl.runtime.transport import (
    TRANSPORTS,
    ExecutorTransport,
    InProcessTransport,
    ProcessTransport,
    Transport,
    get_transport,
    transport_from_executor,
)

__all__ = [
    "AttestationGate",
    "BroadcastEnvelope",
    "COMPRESSIONS",
    "ClientSession",
    "ClientTask",
    "DeltaState",
    "ExecutorTransport",
    "FederatedRunResult",
    "FederationRuntime",
    "InProcessTransport",
    "Participant",
    "ProcessTransport",
    "RoundHooks",
    "SealedState",
    "SecureTrafficStats",
    "TRANSPORTS",
    "Transport",
    "UpdateEnvelope",
    "apply_delta",
    "client_task_seed",
    "decode_state",
    "encode_state",
    "enroll_and_attest",
    "get_transport",
    "make_delta",
    "run_client_task",
    "sample_by_fraction",
    "seal_state",
    "transport_from_executor",
    "unseal_state",
]
