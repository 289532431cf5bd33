"""Session-scoped, attestation-gated secure channels for sealed queries.

Before a client sends inference queries to the shielded service, it verifies
that the serving enclave really runs the expected measurement — the same
measure → quote → verify handshake the federation runtime uses
(:class:`~repro.fl.runtime.attested.AttestationGate`), with the roles
reversed: here the *service's* enclave proves itself to the querying client.
Only when the quote verifies is a session key minted; every query and reply
for that session then travels sealed through a
:class:`~repro.tee.secure_channel.SecureChannel`, so a network observer (or
the untrusted normal world hosting the trunk) sees ciphertext only.

A tampered quote or an unknown session raises
:class:`~repro.tee.errors.AttestationError` /
:class:`~repro.tee.errors.SecureChannelError` and no query path exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.runtime.attested import AttestationGate, ClientSession
from repro.tee.enclave import Enclave
from repro.tee.errors import AttestationError
from repro.tee.secure_channel import EncryptedMessage, SecureChannel, random_bytes
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class SealedQuery:
    """An encrypted inference payload plus the metadata to rebuild it."""

    session_id: str
    message: EncryptedMessage
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class SealedReply:
    """An encrypted logits payload for one request."""

    session_id: str
    message: EncryptedMessage
    shape: tuple
    dtype: str


class ServingSession:
    """Client-side handle: seal queries for — and open replies from — a service."""

    def __init__(self, session: ClientSession, seed: int = 0):
        self.session_id = session.client_id
        self._query_channel = session.channel("serve.query", seed)
        self._reply_channel = session.channel("serve.reply", seed)

    def seal_query(self, payload: np.ndarray) -> SealedQuery:
        message, shape, dtype = self._query_channel.encrypt_array(payload)
        return SealedQuery(self.session_id, message, tuple(shape), np.dtype(dtype).str)

    def open_reply(self, reply: SealedReply) -> np.ndarray:
        return self._reply_channel.decrypt_array(
            reply.message, tuple(reply.shape), np.dtype(reply.dtype)
        )


class SessionManager:
    """Server-side registry of attested serving sessions.

    ``open`` runs the attestation handshake for the service's enclave: the
    (simulated) client verifies the enclave's quote against its measurement
    and both sides derive per-session channels from the minted key.  The
    returned :class:`ServingSession` is the client's handle; the manager
    keeps the matching server-side channels for unsealing queries and
    sealing replies.
    """

    def __init__(self, enclave: Enclave, rng: np.random.Generator | None = None):
        self.enclave = enclave
        self._rng = rng if rng is not None else spawn_rng("serve.sessions")
        self._gate = AttestationGate(rng=self._rng)
        self._channels: dict[str, tuple[SecureChannel, SecureChannel]] = {}
        self.sessions: dict[str, ClientSession] = {}

    def open(self, session_id: str, seed: int = 0) -> ServingSession:
        """Attest the serving enclave to a new client and mint its session."""
        if session_id in self.sessions:
            raise AttestationError(f"session {session_id!r} is already open")
        device_key = random_bytes(self._rng, 32)
        self._gate.enroll(session_id, device_key, self.enclave.measurement())
        session = self._gate.establish(
            session_id, lambda nonce: self.enclave.attest(nonce, device_key)
        )
        self.sessions[session_id] = session
        # The server decrypts queries (any endpoint can decrypt any other's
        # messages — the channel is symmetric) and encrypts replies with the
        # reply-purpose nonce stream the client-side handle expects.
        self._channels[session_id] = (
            session.channel("serve.query", seed),
            session.channel("serve.reply", seed),
        )
        return ServingSession(session, seed=seed)

    def close(self, session_id: str) -> None:
        self._gate.revoke(session_id)
        self.sessions.pop(session_id, None)
        self._channels.pop(session_id, None)

    def _require(self, session_id: str) -> tuple[SecureChannel, SecureChannel]:
        if session_id not in self._channels:
            raise AttestationError(f"no attested session {session_id!r}")
        return self._channels[session_id]

    def unseal_query(self, sealed: SealedQuery) -> np.ndarray:
        """Decrypt a sealed query at the enclave edge (integrity-checked)."""
        query_channel, _ = self._require(sealed.session_id)
        return query_channel.decrypt_array(
            sealed.message, tuple(sealed.shape), np.dtype(sealed.dtype)
        )

    def seal_reply(self, session_id: str, logits: np.ndarray) -> SealedReply:
        """Encrypt one request's logits for the session's client."""
        _, reply_channel = self._require(session_id)
        message, shape, dtype = reply_channel.encrypt_array(logits)
        return SealedReply(session_id, message, tuple(shape), np.dtype(dtype).str)
