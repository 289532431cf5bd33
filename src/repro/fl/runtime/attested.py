"""Attestation-gated secure sessions between the FL server and client TEEs.

Before the runtime trusts a shielded client, the server verifies that the
client-side enclave really runs the expected measurement (the paper cites
WaTZ-style remote attestation for TrustZone).  The flow is the usual
measure → quote → verify handshake of :mod:`repro.tee.attestation`:

1. the client enrolls — the server learns its device key and the expected
   enclave measurement (in production this comes from the deployment's
   build pipeline, here from the enclave as built);
2. the server challenges with a fresh nonce; the client's enclave signs a
   quote over its live measurement;
3. only if the quote verifies does the server mint a session key; every
   broadcast/update for that client then travels sealed through a
   :class:`~repro.tee.secure_channel.SecureChannel` keyed by the session.

A tampered quote, a stale nonce or an unenrolled client raises
:class:`~repro.tee.errors.AttestationError` and no session (hence no update
path) is established.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.tee.attestation import AttestationQuote, verify_quote
from repro.tee.errors import AttestationError
from repro.tee.secure_channel import SecureChannel, random_bytes
from repro.utils.rng import derive_seed, spawn_rng


@dataclass(frozen=True)
class ClientSession:
    """An attestation-gated secure session with one client."""

    client_id: str
    session_key: bytes
    quote: AttestationQuote

    def channel(self, purpose: str, seed: int) -> SecureChannel:
        """A channel endpoint over this session with derived nonce randomness.

        Both endpoints share the session key; ``purpose`` only seeds the
        nonce stream, so any endpoint can decrypt any other's messages while
        nonces stay deterministic for a given (purpose, seed).
        """
        nonce_rng = np.random.default_rng(
            derive_seed(f"fl.session.{self.client_id}.{purpose}", seed)
        )
        return SecureChannel(self.session_key, rng=nonce_rng)


class AttestationGate:
    """Server-side verifier enrolling client enclaves and minting sessions."""

    def __init__(self, rng: np.random.Generator | None = None):
        self._rng = rng if rng is not None else spawn_rng("fl.attestation")
        self._enrolled: dict[str, tuple[bytes, bytes]] = {}
        #: Established sessions by client id (the runtime reads these).
        self.sessions: dict[str, ClientSession] = {}

    def enroll(self, client_id: str, device_key: bytes, expected_measurement: bytes) -> None:
        """Register a client's device key and expected enclave measurement."""
        self._enrolled[client_id] = (bytes(device_key), bytes(expected_measurement))

    def establish(
        self, client_id: str, attest: Callable[[bytes], AttestationQuote]
    ) -> ClientSession:
        """Challenge a client and mint a session key if its quote verifies."""
        if client_id not in self._enrolled:
            raise AttestationError(f"client {client_id!r} is not enrolled")
        device_key, expected_measurement = self._enrolled[client_id]
        nonce = random_bytes(self._rng, 16)
        quote = attest(nonce)
        if not verify_quote(quote, expected_measurement, nonce, device_key):
            raise AttestationError(
                f"attestation quote for client {client_id!r} failed verification"
            )
        session = ClientSession(
            client_id=client_id, session_key=random_bytes(self._rng, 32), quote=quote
        )
        self.sessions[client_id] = session
        return session

    def revoke(self, client_id: str) -> None:
        """Drop an established session (e.g. after a failed re-attestation)."""
        self.sessions.pop(client_id, None)


def enroll_and_attest(gate: AttestationGate, client, device_key: bytes) -> ClientSession:
    """Enroll a client's enclave as built and establish its session.

    The client must expose a non-``None`` ``enclave`` attribute; its current
    measurement becomes the expected one (trust-on-first-use enrollment).
    """
    enclave = getattr(client, "enclave", None)
    if enclave is None:
        raise AttestationError(f"client {client.client_id!r} has no enclave to attest")
    gate.enroll(client.client_id, device_key, enclave.measurement())
    return gate.establish(
        client.client_id, lambda nonce: enclave.attest(nonce, device_key)
    )
