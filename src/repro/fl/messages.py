"""Protocol messages exchanged between the FL server and its clients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GlobalModelBroadcast:
    """Server → clients: the current global model parameters."""

    round_index: int
    state: dict[str, np.ndarray]

    def copy(self) -> "GlobalModelBroadcast":
        return GlobalModelBroadcast(
            round_index=self.round_index,
            state={key: np.array(value, copy=True) for key, value in self.state.items()},
        )


@dataclass
class ModelUpdate:
    """Client → server: the locally trained parameters and sample count."""

    client_id: str
    round_index: int
    num_samples: int
    state: dict[str, np.ndarray]
    train_loss: float = float("nan")
    train_accuracy: float = float("nan")

    @property
    def payload_nbytes(self) -> int:
        """Bytes of the update's parameters: what it puts on the wire, sealing aside."""
        return int(sum(np.asarray(value).nbytes for value in self.state.values()))


@dataclass
class RoundResult:
    """Summary of one federated round."""

    round_index: int
    participating_clients: list[str]
    global_accuracy: float
    mean_client_loss: float
    update_bytes: int = 0
    compromised_clients: list[str] = field(default_factory=list)
