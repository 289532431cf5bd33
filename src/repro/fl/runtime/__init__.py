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
    BroadcastEnvelope,
    SealedState,
    UpdateEnvelope,
    decode_state,
    encode_state,
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
    SecureTrafficStats,
    sample_by_fraction,
)
from repro.fl.runtime.transport import Transport

__all__ = [
    "AttestationGate",
    "BroadcastEnvelope",
    "ClientSession",
    "ClientTask",
    "FederatedRunResult",
    "FederationRuntime",
    "Participant",
    "SealedState",
    "SecureTrafficStats",
    "Transport",
    "UpdateEnvelope",
    "client_task_seed",
    "decode_state",
    "encode_state",
    "enroll_and_attest",
    "run_client_task",
    "sample_by_fraction",
    "unseal_state",
]
