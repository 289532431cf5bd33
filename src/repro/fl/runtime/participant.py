"""The participant protocol and the transport worker that drives one client.

A *participant* is anything the runtime can hand a broadcast to and get a
model update back from; :class:`~repro.fl.client.HonestClient` and its
subclasses implement it.  The protocol carries ``is_compromised`` so the
server records adversarial participation structurally instead of matching
class names (which breaks under subclassing).

One client's local round is a :class:`ClientTask` executed by
:func:`run_client_task`.  The process-pool transport hands tasks to its
workers through the fork, so neither the task nor the function is pickled;
only the returned :class:`~repro.fl.runtime.envelopes.UpdateEnvelope` is.
The function is pure in its task, so every backend produces bit-identical
updates:

* all local randomness (mini-batch shuffling, poisoning index choice) is
  drawn from a generator derived from the task's per-(round, client) seed,
  never from shared global streams;
* sealed envelopes are decrypted/encrypted with channels rebuilt from the
  session key inside the worker, with deterministically derived nonces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.fl.messages import GlobalModelBroadcast, ModelUpdate
from repro.fl.runtime.envelopes import BroadcastEnvelope, UpdateEnvelope
from repro.tee.secure_channel import SecureChannel
from repro.utils.rng import derive_seed


@runtime_checkable
class Participant(Protocol):
    """What the federation runtime requires from a client."""

    client_id: str
    #: Structural marker for adversarial participants; honest clients carry
    #: ``False``.  Survives subclassing, unlike ``type(...).__name__`` checks.
    is_compromised: bool

    @property
    def num_samples(self) -> int:  # pragma: no cover - protocol signature
        ...

    def receive(self, broadcast: GlobalModelBroadcast) -> None:  # pragma: no cover
        ...

    def local_update(
        self, round_index: int, rng: np.random.Generator | None = None
    ) -> ModelUpdate:  # pragma: no cover - protocol signature
        ...


def client_task_seed(base_seed: int, round_index: int, client_id: str) -> int:
    """Deterministic per-(round, client) seed, independent of execution order."""
    return derive_seed(f"fl.runtime.round{round_index}.client.{client_id}", base_seed)


@dataclass(frozen=True)
class ClientTask:
    """Unit of transport work: one participant's local round."""

    client: Participant
    envelope: BroadcastEnvelope
    round_index: int
    seed: int
    #: Session key of the attested secure session, when one is established.
    session_key: bytes | None = None

    def channel(self, purpose: str) -> SecureChannel | None:
        """Client-side channel endpoint rebuilt from the session key."""
        if self.session_key is None:
            return None
        nonce_rng = np.random.default_rng(derive_seed(f"fl.nonce.{purpose}", self.seed))
        return SecureChannel(self.session_key, rng=nonce_rng)


def run_client_task(task: ClientTask) -> UpdateEnvelope:
    """Execute one client's round: open the broadcast, train, wrap the update."""
    broadcast = task.envelope.open(task.channel("broadcast"))
    task.client.receive(broadcast)
    update = task.client.local_update(task.round_index, rng=np.random.default_rng(task.seed))
    return UpdateEnvelope.from_update(update, task.channel("update"))
