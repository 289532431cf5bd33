"""Typed message envelopes crossing the federation transport.

Every server→client broadcast and client→server update travels as an
envelope: a small frozen dataclass carrying either a plaintext ``state``
mapping or a :class:`SealedState` — the same payload encrypted and
authenticated through a :class:`~repro.tee.secure_channel.SecureChannel`
(the path a TEE-backed deployment uses, §VI of the paper).  Envelopes are
plain values: a process-pool transport hands broadcasts to its workers
through the fork and pickles the update envelopes on their way back.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from repro.fl.messages import GlobalModelBroadcast, ModelUpdate
from repro.tee.errors import SecureChannelError
from repro.tee.secure_channel import EncryptedMessage, SecureChannel
from repro.utils.serialization import load_state, save_state


def encode_state(state: dict[str, np.ndarray]) -> bytes:
    """Serialise a ``state_dict`` mapping to a compact ``.npz`` byte string."""
    buffer = io.BytesIO()
    save_state(buffer, state)
    return buffer.getvalue()


def decode_state(payload: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`encode_state`."""
    return load_state(io.BytesIO(payload))


@dataclass(frozen=True)
class SealedState:
    """A ``state_dict`` encrypted for transit through a secure channel."""

    message: EncryptedMessage

    @property
    def nbytes(self) -> int:
        """Size of the encrypted payload as it crosses the boundary."""
        return self.message.nbytes


def unseal_state(channel: SecureChannel, sealed: SealedState) -> dict[str, np.ndarray]:
    """Verify and decrypt a :class:`SealedState` back into a state mapping."""
    return decode_state(channel.decrypt(sealed.message))


def _check_exactly_one(*payloads) -> None:
    if sum(payload is not None for payload in payloads) != 1:
        raise ValueError("an envelope carries exactly one payload form")


@dataclass(frozen=True)
class BroadcastEnvelope:
    """Server → client: the current global parameters, plaintext or sealed."""

    round_index: int
    state: dict[str, np.ndarray] | None = None
    sealed: SealedState | None = None

    def __post_init__(self):
        _check_exactly_one(self.state, self.sealed)

    @property
    def is_sealed(self) -> bool:
        return self.sealed is not None

    def open(self, channel: SecureChannel | None = None) -> GlobalModelBroadcast:
        """Unwrap into the legacy :class:`GlobalModelBroadcast` message."""
        if self.sealed is not None:
            if channel is None:
                raise SecureChannelError(
                    "sealed broadcast requires an attested session channel"
                )
            state = unseal_state(channel, self.sealed)
        else:
            state = {key: np.array(value, copy=True) for key, value in self.state.items()}
        return GlobalModelBroadcast(round_index=self.round_index, state=state)


#: Key prefix embedding an update's scalar metadata into its ``.npz`` payload,
#: so a sealed update hides *everything* (weights, identity, loss, sample
#: counts) — the server matches replies to participants by exchange order,
#: never by reading a plaintext header.
_META_PREFIX = "__update_meta__"


def _encode_update(update: ModelUpdate) -> bytes:
    payload: dict[str, np.ndarray] = dict(update.state)
    payload[_META_PREFIX + "client_id"] = np.array(update.client_id)
    payload[_META_PREFIX + "round_index"] = np.array(update.round_index)
    payload[_META_PREFIX + "num_samples"] = np.array(update.num_samples)
    payload[_META_PREFIX + "train_loss"] = np.array(update.train_loss)
    payload[_META_PREFIX + "train_accuracy"] = np.array(update.train_accuracy)
    return encode_state(payload)


def _decode_update(payload: bytes) -> ModelUpdate:
    decoded = decode_state(payload)
    meta = {
        key[len(_META_PREFIX):]: decoded.pop(key)
        for key in list(decoded)
        if key.startswith(_META_PREFIX)
    }
    return ModelUpdate(
        client_id=str(meta["client_id"][()]),
        round_index=int(meta["round_index"]),
        num_samples=int(meta["num_samples"]),
        state=decoded,
        train_loss=float(meta["train_loss"]),
        train_accuracy=float(meta["train_accuracy"]),
    )


@dataclass(frozen=True)
class UpdateEnvelope:
    """Client → server: the locally trained update, plaintext or sealed.

    The sealed form encrypts the *entire* update — parameters and scalar
    metadata alike — leaving nothing but ciphertext on the transport.
    Exactly one of ``update`` / ``sealed`` is set.
    """

    update: ModelUpdate | None = None
    sealed: SealedState | None = None

    def __post_init__(self):
        _check_exactly_one(self.update, self.sealed)

    @property
    def is_sealed(self) -> bool:
        return self.sealed is not None

    @classmethod
    def from_update(
        cls, update: ModelUpdate, channel: SecureChannel | None = None
    ) -> "UpdateEnvelope":
        """Wrap a :class:`ModelUpdate`, sealing it whole when a channel is given."""
        if channel is not None:
            return cls(sealed=SealedState(message=channel.encrypt(_encode_update(update))))
        return cls(update=update)

    def open(self, channel: SecureChannel | None = None) -> ModelUpdate:
        """Unwrap the carried :class:`ModelUpdate`, decrypting a sealed one."""
        if self.sealed is not None:
            if channel is None:
                raise SecureChannelError(
                    "sealed update requires an attested session channel"
                )
            return _decode_update(channel.decrypt(self.sealed.message))
        return self.update
