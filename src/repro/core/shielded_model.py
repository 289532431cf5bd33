"""PELTA-shielded model wrapper.

:class:`ShieldedModel` is the production path of the defense: it wraps one of
the zoo's :class:`~repro.models.base.ImageClassifier` models and runs the
model's *stem* (the transforms the paper shields for that architecture)
inside a TEE enclave.  Concretely:

* the stem parameters are sealed inside the enclave at construction time;
* every forward pass runs the stem inside a shield scope, so the stem's
  intermediate activations (and their would-be gradients) are accounted
  against the enclave's secure memory;
* the input crosses the world boundary on the way in and the stem output
  (the only stem value the normal world ever sees) crosses it on the way
  out, with the corresponding context-switch cost recorded;
* the stem output tensor is remembered as the *frontier*: its adjoint
  δ_{L+1} is the only backward-pass quantity of the shielded region an
  attacker can observe.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.context import no_grad
from repro.autodiff.graph import GraphSnapshot
from repro.autodiff.tensor import Tensor
from repro.core.partition import BoundaryCrossing, ModelPartition
from repro.core.selection import select_shield_tagged
from repro.core.shielding import PeltaShieldReport, pelta_shield
from repro.models.base import ImageClassifier
from repro.tee.enclave import Enclave, TrustZoneEnclave


class ShieldedModel:
    """A defender model whose stem runs inside a TEE enclave."""

    def __init__(
        self,
        model: ImageClassifier,
        enclave: Enclave | None = None,
    ):
        self.model = model
        self.enclave = enclave if enclave is not None else TrustZoneEnclave(
            name=f"{type(model).__name__.lower()}.enclave"
        )
        #: Staged execution plan: shield-target stages run inside the
        #: enclave, and every secure/clear stage edge charges the world
        #: boundary explicitly (see :mod:`repro.core.partition`).
        self.partition = ModelPartition(model, self.enclave)
        self.sealed_parameter_bytes = self.enclave.seal_parameters(
            model.stem_parameters(), prefix="stem."
        )
        for parameter in model.stem_parameters():
            parameter.shielded = True
        #: Output tensor of the shielded stem in the most recent forward pass.
        self.last_frontier: Tensor | None = None
        #: Input tensor of the most recent forward pass.
        self.last_input: Tensor | None = None
        #: Boundary crossings charged by the most recent forward pass.
        self.last_crossings: list[BoundaryCrossing] = []

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        """Run the model's stage plan; returns the logits tensor.

        The shielded stages run inside the enclave's shield scope; the value
        crossing back to the normal world is the *frontier* — the paper's
        shallowest clear layer, whose adjoint the attacker can still read.
        """
        self.enclave.flush_regions()
        self.last_input = x
        result = self.partition.run(x)
        if result.frontier is not None:
            result.frontier.retains_grad = True
        self.last_frontier = result.frontier
        self.last_crossings = result.crossings
        return result.output

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    # ------------------------------------------------------------------ #
    # Convenience prediction helpers
    # ------------------------------------------------------------------ #
    @property
    def num_classes(self) -> int:
        return self.model.num_classes

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return self.model.input_shape

    @property
    def family(self) -> str:
        return self.model.family

    def logits(self, inputs: np.ndarray) -> np.ndarray:
        """Logits for a numpy batch without recording gradients."""
        with no_grad():
            out = self.forward(Tensor(np.asarray(inputs)))
        return out.data

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted class indices for a numpy batch."""
        return self.logits(inputs).argmax(axis=1)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
        """Classification accuracy computed in batches."""
        labels = np.asarray(labels)
        correct = 0
        for start in range(0, len(labels), batch_size):
            stop = start + batch_size
            correct += int((self.predict(inputs[start:stop]) == labels[start:stop]).sum())
        return correct / max(len(labels), 1)

    def attention_maps(self) -> list[np.ndarray]:
        """Attention maps of the wrapped model's last forward pass (ViT only)."""
        return self.model.attention_maps()

    def stem_parameters(self):
        """Parameters sealed inside the enclave."""
        return self.model.stem_parameters()

    # ------------------------------------------------------------------ #
    # Shield analysis (Alg. 1 applied to a concrete forward pass)
    # ------------------------------------------------------------------ #
    def shield_report(self, x: np.ndarray, labels: np.ndarray | None = None) -> PeltaShieldReport:
        """Run one shielded forward pass and apply Alg. 1 to its graph.

        Returns the report describing exactly which node values and which
        local jacobians ended up masked for that pass.
        """
        from repro.autodiff import functional as F

        input_tensor = Tensor(np.asarray(x), requires_grad=True, is_input=True, name="input")
        logits = self.forward(input_tensor)
        if labels is not None:
            objective = F.cross_entropy(logits, np.asarray(labels), reduction="sum")
        else:
            objective = logits.sum()
        graph = GraphSnapshot(objective)
        selected = select_shield_tagged(graph)
        return pelta_shield(graph, selected, enclave=self.enclave)

    def shielded_fraction(self) -> float:
        """Fraction of the model's parameters that live inside the enclave."""
        total = self.model.num_parameters()
        stem = sum(parameter.size for parameter in self.model.stem_parameters())
        return stem / max(total, 1)
