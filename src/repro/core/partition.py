"""Explicit partition-staged execution of a defender's forward pass.

A :class:`ModelPartition` turns a model's declarative stage sequence
(:meth:`~repro.models.base.ImageClassifier.forward_stages`) into an
execution plan over the TEE boundary: stages whose ``shield_target`` flag is
set run inside the enclave's shield scope, and **every** transition between a
secure and a clear stage is charged to the enclave's
:class:`~repro.tee.world.WorldBoundary` as an explicit crossing carrying the
tensor that moves across it.  This replaces the implicit enter/exit pair the
shielded model used to hard-code: the cost model now follows directly from
the partition, so a model with several shielded stages — or a future policy
interleaving secure and clear stages — is accounted correctly without
touching the forward pass.

The plan also records the crossing sequence of the last run
(:class:`BoundaryCrossing` entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.autodiff.tensor import Tensor
from repro.models.base import ForwardStage, ImageClassifier
from repro.tee.enclave import Enclave


@dataclass(frozen=True)
class BoundaryCrossing:
    """One charged world switch: its direction and the payload it carried."""

    direction: str  # "enter" (normal → secure) or "exit" (secure → normal)
    payload_bytes: int
    stage: str


@dataclass
class StagedForwardResult:
    """Everything one staged forward pass produced."""

    output: Tensor
    #: Output of the deepest secure stage — the shallowest value the normal
    #: world sees (None when no stage ran inside the enclave).
    frontier: Tensor | None
    crossings: list[BoundaryCrossing] = field(default_factory=list)
    #: Per-stage output tensors, in execution order (stage name → tensor).
    stage_outputs: dict[str, Tensor] = field(default_factory=dict)


class ModelPartition:
    """Execution plan splitting a model's stages across the TEE boundary.

    ``enclave`` may be None, in which case no stage is secure and the plan
    degenerates to the plain composed forward (no crossings charged) — the
    same code path then serves shielded and clear deployments.
    """

    def __init__(self, model: ImageClassifier, enclave: Enclave | None = None):
        self.model = model
        self.enclave = enclave
        self.stages: list[ForwardStage] = list(model.forward_stages())
        if not self.stages:
            raise ValueError(f"{type(model).__name__} declares no forward stages")

    def describe(self) -> list[dict]:
        """JSON-able stage table (for run records and demos)."""
        return [
            {
                "stage": stage.name,
                "secure": bool(self.enclave is not None and stage.shield_target),
            }
            for stage in self.stages
        ]

    def run(self, x: Tensor) -> StagedForwardResult:
        """Execute the stages, charging one crossing per secure/clear edge."""
        boundary = self.enclave.boundary if self.enclave is not None else None
        crossings: list[BoundaryCrossing] = []
        stage_outputs: dict[str, Tensor] = {}
        frontier: Tensor | None = None
        in_secure = False
        hidden = x
        for stage in self.stages:
            secure = self.enclave is not None and stage.shield_target
            if secure and not in_secure:
                boundary.enter_secure_world(hidden.nbytes)
                crossings.append(BoundaryCrossing("enter", hidden.nbytes, stage.name))
            elif not secure and in_secure:
                boundary.exit_secure_world(hidden.nbytes)
                crossings.append(BoundaryCrossing("exit", hidden.nbytes, stage.name))
                # The value crossing back is handed to the normal world: its
                # *value* is public from here on (the paper's "shallowest
                # clear layer"), even though it was produced in the enclave.
                hidden.shielded = False
                frontier = hidden
            in_secure = secure
            if secure:
                with self.enclave.shield_scope(stage.name):
                    hidden = stage.run(hidden)
            else:
                hidden = stage.run(hidden)
            stage_outputs[stage.name] = hidden
        if in_secure:
            boundary.exit_secure_world(hidden.nbytes)
            crossings.append(BoundaryCrossing("exit", hidden.nbytes, "output"))
            hidden.shielded = False
            frontier = hidden
        return StagedForwardResult(
            output=hidden, frontier=frontier, crossings=crossings, stage_outputs=stage_outputs
        )
