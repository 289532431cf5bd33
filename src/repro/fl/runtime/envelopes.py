"""Typed message envelopes crossing the federation transport.

Every server→client broadcast and client→server update travels as an
envelope: a small frozen dataclass carrying either a plaintext ``state``
mapping or a :class:`SealedState` — the same payload encrypted and
authenticated through a :class:`~repro.tee.secure_channel.SecureChannel`
(the path a TEE-backed deployment uses, §VI of the paper).  Envelopes are
plain picklable values, so every transport backend (in-process or
process pool) ships them unchanged.
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


# --------------------------------------------------------------------------- #
# Delta-compressed updates (bytes-on-wire)
# --------------------------------------------------------------------------- #
#: Symmetric int8 code range of the quantized delta form.  ±127 keeps the
#: code book symmetric around zero (−128 is never emitted), so quantizing a
#: delta and its negation are mirror images.
QUANT_LEVELS = 127

#: Compression modes a federation runtime / client task understands.
#: ``delta`` ships ``state − broadcast`` at full precision (same bytes as the
#: dense state; useful as a correctness baseline), ``delta-int8`` additionally
#: quantizes each field to int8 codes with a per-field scale — the ≥ 3×
#: bytes-on-wire mode (≈ 4× for float32 states, ≈ 8× for float64).
COMPRESSIONS = ("none", "delta", "delta-int8")


@dataclass(frozen=True)
class DeltaState:
    """A client update as its difference against the round's broadcast state.

    ``codes`` holds one array per parameter key: raw float deltas when
    ``scales`` is ``None``, int8 quantization codes otherwise (one scale per
    key; ``delta ≈ codes · scale``).  Quantization is *stochastic rounding*
    with a per-(round, client) derived generator, so the codes — hence the
    reconstructed aggregate — are byte-identical on every transport backend.
    """

    codes: dict[str, np.ndarray]
    scales: dict[str, float] | None = None

    @property
    def is_quantized(self) -> bool:
        return self.scales is not None

    @property
    def nbytes(self) -> int:
        """Wire cost of the delta: code bytes plus one float64 scale per field."""
        total = int(sum(np.asarray(value).nbytes for value in self.codes.values()))
        if self.scales is not None:
            total += 8 * len(self.scales)
        return total


def make_delta(
    state: dict[str, np.ndarray],
    base: dict[str, np.ndarray],
    quantize_rng: np.random.Generator | None = None,
) -> DeltaState:
    """Build the delta form of ``state`` against the broadcast ``base``.

    With ``quantize_rng`` the per-key deltas are uniformly quantized to int8:
    ``scale = max|delta| / QUANT_LEVELS`` and codes are drawn by stochastic
    rounding ``floor(delta/scale + u)``, ``u ~ U[0, 1)`` — unbiased, and
    deterministic for a given generator state.  The generator is consumed in
    the state's (canonical packed) key order.
    """
    deltas = {
        key: np.asarray(value) - np.asarray(base[key]) for key, value in state.items()
    }
    if quantize_rng is None:
        return DeltaState(codes=deltas)
    codes: dict[str, np.ndarray] = {}
    scales: dict[str, float] = {}
    for key, delta in deltas.items():
        peak = float(np.max(np.abs(delta))) if delta.size else 0.0
        scale = peak / QUANT_LEVELS
        scales[key] = scale
        if scale == 0.0:
            codes[key] = np.zeros(delta.shape, dtype=np.int8)
            continue
        levels = delta / scale + quantize_rng.random(delta.shape)
        codes[key] = np.clip(np.floor(levels), -QUANT_LEVELS, QUANT_LEVELS).astype(np.int8)
    return DeltaState(codes=codes, scales=scales)


def apply_delta(base: dict[str, np.ndarray], delta: DeltaState) -> dict[str, np.ndarray]:
    """Reconstruct a full state from the broadcast ``base`` and a delta."""
    missing = [key for key in base if key not in delta.codes]
    if missing:
        raise ValueError(f"delta update is missing parameter(s) {missing}")
    extra = sorted(set(delta.codes) - set(base))
    if extra:
        raise ValueError(f"delta update carries unexpected parameter(s) {extra}")
    state: dict[str, np.ndarray] = {}
    for key, base_value in base.items():
        base_value = np.asarray(base_value)
        code = np.asarray(delta.codes[key])
        if delta.scales is None:
            step = code.astype(base_value.dtype, copy=False)
        else:
            step = code.astype(base_value.dtype) * base_value.dtype.type(delta.scales[key])
        state[key] = (base_value + step.reshape(base_value.shape)).astype(
            base_value.dtype, copy=False
        )
    return state


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

#: Key prefixes embedding a *delta-form* payload into the same ``.npz`` codec:
#: per-field quantization codes (or raw float deltas) and per-field scales.
_DELTA_PREFIX = "__update_delta__"
_DELTA_SCALE_PREFIX = "__update_delta_scale__"


def _encode_update(update: ModelUpdate, delta: DeltaState | None = None) -> bytes:
    if delta is None:
        payload: dict[str, np.ndarray] = dict(update.state)
    else:
        payload = {_DELTA_PREFIX + key: codes for key, codes in delta.codes.items()}
        if delta.scales is not None:
            for key, scale in delta.scales.items():
                payload[_DELTA_SCALE_PREFIX + key] = np.array(scale, dtype=np.float64)
    payload[_META_PREFIX + "client_id"] = np.array(update.client_id)
    payload[_META_PREFIX + "round_index"] = np.array(update.round_index)
    payload[_META_PREFIX + "num_samples"] = np.array(update.num_samples)
    payload[_META_PREFIX + "train_loss"] = np.array(update.train_loss)
    payload[_META_PREFIX + "train_accuracy"] = np.array(update.train_accuracy)
    return encode_state(payload)


def _decode_update(payload: bytes, base: dict[str, np.ndarray] | None = None) -> ModelUpdate:
    decoded = decode_state(payload)
    meta = {
        key[len(_META_PREFIX):]: decoded.pop(key)
        for key in list(decoded)
        if key.startswith(_META_PREFIX)
    }
    codes = {
        key[len(_DELTA_PREFIX):]: decoded.pop(key)
        for key in list(decoded)
        if key.startswith(_DELTA_PREFIX)
    }
    scale_values = {
        key[len(_DELTA_SCALE_PREFIX):]: float(decoded.pop(key))
        for key in list(decoded)
        if key.startswith(_DELTA_SCALE_PREFIX)
    }
    wire_bytes = None
    if codes:
        delta = DeltaState(codes=codes, scales=scale_values if scale_values else None)
        if base is None:
            raise ValueError(
                "delta-compressed update requires the round's broadcast state to open"
            )
        decoded = apply_delta(base, delta)
        wire_bytes = delta.nbytes
    return ModelUpdate(
        client_id=str(meta["client_id"][()]),
        round_index=int(meta["round_index"]),
        num_samples=int(meta["num_samples"]),
        state=decoded,
        train_loss=float(meta["train_loss"]),
        train_accuracy=float(meta["train_accuracy"]),
        wire_bytes=wire_bytes,
    )


@dataclass(frozen=True)
class UpdateEnvelope:
    """Client → server: the locally trained parameters, plaintext or sealed.

    The sealed form encrypts the *entire* update — parameters and scalar
    metadata alike — leaving nothing but ciphertext on the transport; the
    plaintext fields are ``None`` in that case.  The delta form ships
    ``state − broadcast`` (optionally int8-quantized, see
    :class:`DeltaState`); opening it requires the round's broadcast state as
    ``base``.  Exactly one of ``state`` / ``sealed`` / ``delta`` is set.
    """

    client_id: str | None = None
    round_index: int | None = None
    num_samples: int | None = None
    train_loss: float | None = None
    train_accuracy: float | None = None
    state: dict[str, np.ndarray] | None = None
    sealed: SealedState | None = None
    delta: DeltaState | None = None

    def __post_init__(self):
        _check_exactly_one(self.state, self.sealed, self.delta)

    @property
    def is_sealed(self) -> bool:
        return self.sealed is not None

    @property
    def wire_nbytes(self) -> int:
        """Bytes this envelope's payload puts on the wire (plaintext forms).

        Sealed envelopes account their ciphertext through ``sealed.nbytes``;
        the logical payload cost inside is recovered when opening (see
        :attr:`~repro.fl.messages.ModelUpdate.wire_bytes`).
        """
        if self.sealed is not None:
            return self.sealed.nbytes
        if self.delta is not None:
            return self.delta.nbytes
        return int(sum(np.asarray(value).nbytes for value in self.state.values()))

    @classmethod
    def from_update(
        cls,
        update: ModelUpdate,
        channel: SecureChannel | None = None,
        delta: DeltaState | None = None,
    ) -> "UpdateEnvelope":
        """Wrap a :class:`ModelUpdate`, sealing it whole when a channel is given.

        With ``delta`` the envelope carries the delta form instead of the
        dense state (inside the ciphertext when also sealed).
        """
        if channel is not None:
            return cls(
                sealed=SealedState(message=channel.encrypt(_encode_update(update, delta)))
            )
        if delta is not None:
            return cls(
                client_id=update.client_id,
                round_index=update.round_index,
                num_samples=update.num_samples,
                train_loss=update.train_loss,
                train_accuracy=update.train_accuracy,
                delta=delta,
            )
        return cls(
            client_id=update.client_id,
            round_index=update.round_index,
            num_samples=update.num_samples,
            train_loss=update.train_loss,
            train_accuracy=update.train_accuracy,
            state=update.state,
        )

    def open(
        self,
        channel: SecureChannel | None = None,
        base: dict[str, np.ndarray] | None = None,
    ) -> ModelUpdate:
        """Unwrap into the legacy :class:`ModelUpdate` message.

        ``base`` — the round's broadcast state — is required to open the
        delta form (plaintext or inside a sealed payload).
        """
        if self.sealed is not None:
            if channel is None:
                raise SecureChannelError(
                    "sealed update requires an attested session channel"
                )
            return _decode_update(channel.decrypt(self.sealed.message), base=base)
        if self.delta is not None:
            if base is None:
                raise ValueError(
                    "delta-compressed update requires the round's broadcast state to open"
                )
            return ModelUpdate(
                client_id=self.client_id,
                round_index=self.round_index,
                num_samples=self.num_samples,
                state=apply_delta(base, self.delta),
                train_loss=self.train_loss,
                train_accuracy=self.train_accuracy,
                wire_bytes=self.delta.nbytes,
            )
        return ModelUpdate(
            client_id=self.client_id,
            round_index=self.round_index,
            num_samples=self.num_samples,
            state=self.state,
            train_loss=self.train_loss,
            train_accuracy=self.train_accuracy,
        )
