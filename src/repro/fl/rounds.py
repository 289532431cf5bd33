"""Multi-round federated training orchestration (deprecated wrappers).

The orchestration now lives in :mod:`repro.fl.runtime`;
:class:`FederatedTrainer` and :func:`build_federation` are kept as thin
wrappers so existing callers keep working.  New code should build a
:class:`~repro.fl.runtime.runtime.FederationRuntime` directly — it adds
transport selection (serial / process), attestation-gated secure
sessions and round-level hooks.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

from repro.data.splits import iid_partition
from repro.fl.aggregation import AggregationRule, fedavg
from repro.fl.client import ClientConfig, HonestClient
from repro.fl.runtime.runtime import FederatedRunConfig, FederatedRunResult
from repro.fl.server import FLServer
from repro.models.base import ImageClassifier
from repro.utils.rng import spawn_rng

__all__ = [
    "FederatedRunConfig",
    "FederatedRunResult",
    "FederatedTrainer",
    "build_federation",
]


class FederatedTrainer:
    """Deprecated: drives a federated run through the federation runtime.

    Kept for source compatibility with the seed API; prefer
    :class:`~repro.fl.runtime.runtime.FederationRuntime` which exposes the
    transport, attestation gate and round hooks directly.
    """

    def __init__(
        self,
        server: FLServer,
        clients: Sequence[HonestClient],
        config: FederatedRunConfig | None = None,
    ):
        warnings.warn(
            "FederatedTrainer is deprecated; use repro.fl.runtime.FederationRuntime",
            DeprecationWarning,
            stacklevel=2,
        )
        self.server = server
        self.clients = list(clients)
        self.config = config if config is not None else FederatedRunConfig()

    def run(
        self,
        eval_images: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
    ) -> FederatedRunResult:
        """Run the configured number of rounds, evaluating after each.

        Each round goes through :meth:`FLServer.run_round` (itself a runtime
        wrapper), so server subclasses overriding ``run_round`` — or reading
        ``round_index`` mid-run — behave exactly as they did on the seed API.
        """
        result = FederatedRunResult()
        for _ in range(self.config.num_rounds):
            result.rounds.append(
                self.server.run_round(
                    self.clients,
                    fraction=self.config.client_fraction,
                    eval_images=eval_images,
                    eval_labels=eval_labels,
                )
            )
        return result


def build_federation(
    model_factory: Callable[[], ImageClassifier],
    images: np.ndarray,
    labels: np.ndarray,
    num_clients: int = 4,
    aggregation_rule: AggregationRule = fedavg,
    client_config: ClientConfig | None = None,
) -> tuple[FLServer, list[HonestClient]]:
    """Build a server plus an IID-partitioned population of honest clients.

    Deprecated-but-supported convenience over the runtime API; the returned
    pieces plug directly into :class:`FederationRuntime` as well.
    """
    rng = spawn_rng("fl.federation")
    partitions = iid_partition(labels, num_clients, rng=rng)
    clients = [
        HonestClient(
            client_id=f"client{i}",
            model_factory=model_factory,
            images=images[part],
            labels=labels[part],
            config=client_config,
        )
        for i, part in enumerate(partitions)
    ]
    server = FLServer(model_factory(), aggregation_rule=aggregation_rule)
    return server, clients
