"""Trusted execution environment substrate (enclaves, attestation, channels)."""

from repro.tee.attestation import AttestationQuote, measure_payload, produce_quote, verify_quote
from repro.tee.enclave import Enclave, EnclaveMemoryReport, TrustZoneEnclave
from repro.tee.errors import (
    AttestationError,
    EnclaveAccessError,
    EnclaveMemoryError,
    SecureChannelError,
    TEEError,
)
from repro.tee.secure_channel import (
    EncryptedMessage,
    SecureChannel,
    establish_session,
    random_bytes,
)
from repro.tee.world import WorldBoundary, WorldSwitchCostModel, WorldSwitchStats

__all__ = [
    "AttestationError",
    "AttestationQuote",
    "Enclave",
    "EnclaveAccessError",
    "EnclaveMemoryError",
    "EnclaveMemoryReport",
    "EncryptedMessage",
    "SecureChannel",
    "SecureChannelError",
    "TEEError",
    "TrustZoneEnclave",
    "WorldBoundary",
    "WorldSwitchCostModel",
    "WorldSwitchStats",
    "establish_session",
    "measure_payload",
    "produce_quote",
    "random_bytes",
    "verify_quote",
]
