"""The federation runtime: FL rounds as transport exchanges of envelopes.

:class:`FederationRuntime` replaces the seed's direct-call client/server
coupling.  Each round it

1. samples the participating clients by ``client_fraction``;
2. wraps the global parameters into one
   :class:`~repro.fl.runtime.envelopes.BroadcastEnvelope` per participant —
   sealed through the client's attested
   :class:`~repro.fl.runtime.attested.ClientSession` channel when one exists;
3. streams the resulting :class:`~repro.fl.runtime.participant.ClientTask`
   batch over the :class:`~repro.fl.runtime.transport.Transport`, so local
   updates run serially or in worker processes with bit-identical results;
4. opens each reply envelope as it arrives, in participant order, folds it
   into the rule's streaming aggregator and installs the aggregate as the
   new global model;
5. evaluates and emits a :class:`~repro.fl.messages.RoundResult`.

All server-side randomness (client sampling) and all per-client randomness
derive from ``seed`` and stable stream names, never from execution order —
the determinism contract the transport-parity tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.fl.aggregation import AggregationRule, FedavgStream
from repro.fl.messages import ModelUpdate, RoundResult
from repro.fl.runtime.attested import AttestationGate, ClientSession, enroll_and_attest
from repro.tee.errors import AttestationError
from repro.fl.runtime.envelopes import (
    BroadcastEnvelope,
    SealedState,
    UpdateEnvelope,
    encode_state,
)
from repro.fl.runtime.participant import ClientTask, Participant, client_task_seed
from repro.fl.runtime.transport import Transport
from repro.models.base import ImageClassifier
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed, get_global_seed

_LOGGER = get_logger("fl.runtime")


def sample_by_fraction(
    clients: Sequence[Participant], fraction: float, rng: np.random.Generator
) -> list[Participant]:
    """Uniformly sample ``round(fraction * N)`` clients (at least one), in order."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    count = max(int(round(fraction * len(clients))), 1)
    indices = rng.choice(len(clients), size=count, replace=False)
    return [clients[index] for index in sorted(indices)]


@dataclass
class FederatedRunResult:
    """History of a federated training run."""

    rounds: list[RoundResult] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.rounds[-1].global_accuracy if self.rounds else float("nan")

    @property
    def accuracies(self) -> list[float]:
        return [entry.global_accuracy for entry in self.rounds]


@dataclass
class SecureTrafficStats:
    """Counters of the attested/sealed traffic a runtime has moved."""

    attested_clients: int = 0
    sealed_messages: int = 0
    sealed_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "attested_clients": self.attested_clients,
            "sealed_messages": self.sealed_messages,
            "sealed_bytes": self.sealed_bytes,
        }


class FederationRuntime:
    """Drives federated rounds over a transport.

    ``aggregation_rule`` is a :class:`~repro.fl.aggregation.StreamingAggregator`
    class (or a ``functools.partial`` of one); each round calls it with the
    broadcast state and the participant count before any client trains.
    """

    def __init__(
        self,
        global_model: ImageClassifier,
        clients: Sequence[Participant],
        transport: Transport | None = None,
        aggregation_rule: AggregationRule = FedavgStream,
        gate: AttestationGate | None = None,
        client_fraction: float = 1.0,
        seed: int | None = None,
        round_index: int = 0,
    ):
        self.global_model = global_model
        self.clients = list(clients)
        self.transport = transport if transport is not None else Transport()
        self.aggregation_rule = aggregation_rule
        self.gate = gate
        self.client_fraction = client_fraction
        self.seed = seed if seed is not None else get_global_seed()
        self.round_index = round_index
        self.secure_stats = SecureTrafficStats()
        #: Sessions established for *this* runtime's clients (the gate may be
        #: shared with other federations; its session table is not ours).
        self._sessions: dict[str, ClientSession] = {}

    # ------------------------------------------------------------------ #
    # Attested session establishment
    # ------------------------------------------------------------------ #
    def attest_clients(self, device_keys: Mapping[str, bytes]) -> dict[str, ClientSession]:
        """Enroll and attest every enclave-carrying client before training.

        ``device_keys`` maps client ids to their (simulated) hardware keys.
        Raises :class:`~repro.tee.errors.AttestationError` on any failed
        quote — and on an enclave-carrying client with no device key, so a
        client can never silently fall back to plaintext traffic — ensuring
        a tampered or unverifiable enclave never reaches the update path.
        """
        if self.gate is None:
            self.gate = AttestationGate(
                rng=np.random.default_rng(derive_seed("fl.runtime.gate", self.seed))
            )
        sessions: dict[str, ClientSession] = {}
        for client in self.clients:
            if getattr(client, "enclave", None) is None:
                continue
            if client.client_id not in device_keys:
                raise AttestationError(
                    f"no device key for enclave-carrying client {client.client_id!r}; "
                    "refusing to downgrade its traffic to plaintext"
                )
            sessions[client.client_id] = enroll_and_attest(
                self.gate, client, device_keys[client.client_id]
            )
        self._sessions.update(sessions)
        # Count this runtime's clients with live sessions — never sessions a
        # shared gate holds for some other federation's clients.
        self.secure_stats.attested_clients = sum(
            1 for client in self.clients if self._session_for(client) is not None
        )
        _LOGGER.info("attested %d client enclave(s)", len(sessions))
        return sessions

    def _session_for(self, client: Participant) -> ClientSession | None:
        return self._sessions.get(client.client_id)

    # ------------------------------------------------------------------ #
    # Round steps
    # ------------------------------------------------------------------ #
    def sample_clients(self) -> list[Participant]:
        """Pick this round's participants by ``client_fraction``."""
        rng = np.random.default_rng(
            derive_seed(f"fl.runtime.sample.round{self.round_index}", self.seed)
        )
        return sample_by_fraction(self.clients, self.client_fraction, rng)

    def _build_tasks(
        self,
        participants: Sequence[Participant],
        state: dict[str, np.ndarray],
        encoded: bytes | None,
    ) -> list[ClientTask]:
        """Build the round's client tasks, sealing each attested client's copy.

        ``encoded`` is the round's state serialised once; only the per-client
        encryption differs, and every channel's nonce stream is a pure
        function of ``(client_id, round, seed)``.
        """
        tasks = []
        for client in participants:
            seed = client_task_seed(self.seed, self.round_index, client.client_id)
            session = self._session_for(client)
            if session is not None:
                channel = session.channel(f"server.round{self.round_index}", self.seed)
                sealed = SealedState(message=channel.encrypt(encoded))
                self.secure_stats.sealed_messages += 1
                self.secure_stats.sealed_bytes += sealed.nbytes
                envelope = BroadcastEnvelope(round_index=self.round_index, sealed=sealed)
                session_key = session.session_key
            else:
                # ``state`` comes from ``state_dict()`` (already fresh copies)
                # and every client copies again in ``BroadcastEnvelope.open``,
                # so the plaintext envelopes of one round can share arrays.
                envelope = BroadcastEnvelope(round_index=self.round_index, state=state)
                session_key = None
            tasks.append(
                ClientTask(
                    client=client,
                    envelope=envelope,
                    round_index=self.round_index,
                    seed=seed,
                    session_key=session_key,
                )
            )
        return tasks

    def _open_one(self, client: Participant, reply: UpdateEnvelope) -> ModelUpdate:
        """Open one reply in participant order, accounting its sealed traffic."""
        channel = None
        if reply.is_sealed:
            session = self._session_for(client)
            if session is None:  # pragma: no cover - defensive
                raise RuntimeError(f"sealed reply from sessionless client {client.client_id!r}")
            channel = session.channel("server.decrypt", self.seed)
            self.secure_stats.sealed_messages += 1
            self.secure_stats.sealed_bytes += reply.sealed.nbytes
        return reply.open(channel)

    def run_round(
        self,
        eval_images: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
    ) -> RoundResult:
        """Broadcast, stream local updates over the transport, aggregate.

        Replies are consumed as the transport yields them — head-of-line, in
        participant order — and folded into the rule's streaming aggregator
        one at a time, so the server never holds every opened update at
        once.
        """
        participants = self.sample_clients()
        state = self.global_model.state_dict()
        encoded = None
        if any(self._session_for(client) is not None for client in participants):
            encoded = encode_state(state)
        aggregator = self.aggregation_rule(state, len(participants))
        tasks = self._build_tasks(participants, state, encoded)
        train_losses: list[float] = []
        update_bytes = 0
        for client, reply in zip(participants, self.transport.exchange_stream(tasks)):
            update = self._open_one(client, reply)
            aggregator.add(update)
            train_losses.append(update.train_loss)
            update_bytes += update.payload_nbytes
            del update  # dropped immediately; the aggregator keeps what it needs
        self.global_model.load_state_dict(aggregator.finalize())
        accuracy = float("nan")
        if eval_images is not None and eval_labels is not None:
            accuracy = self.global_model.accuracy(eval_images, eval_labels)
        losses = np.asarray(train_losses, dtype=float)
        if losses.size and not np.all(np.isnan(losses)):
            mean_client_loss = float(np.nanmean(losses))
        else:  # all-NaN: the nanmean RuntimeWarning carries no information
            mean_client_loss = float("nan")
        result = RoundResult(
            round_index=self.round_index,
            participating_clients=[client.client_id for client in participants],
            global_accuracy=accuracy,
            mean_client_loss=mean_client_loss,
            update_bytes=update_bytes,
            compromised_clients=[
                client.client_id
                for client in participants
                if bool(getattr(client, "is_compromised", False))
            ],
        )
        self.round_index += 1
        return result

    def run(
        self,
        num_rounds: int,
        eval_images: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
    ) -> FederatedRunResult:
        """Run ``num_rounds`` rounds, evaluating after each."""
        result = FederatedRunResult()
        for _ in range(num_rounds):
            result.rounds.append(self.run_round(eval_images, eval_labels))
        return result
