"""Attacker-facing gradient views (the information barrier of PELTA).

Gradient-based evasion attacks interact with the defender model only through
one of these views:

* :class:`FullWhiteBoxView` — the classic white-box setting: the attacker
  reads the exact gradient of the loss with respect to the input, ∇_x L.
* :class:`RestrictedWhiteBoxView` — the PELTA setting: the model's stem is
  shielded, so the attacker can only read the adjoint δ_{L+1} of the
  shallowest *clear* layer and must push it back to the input space with an
  attacker-chosen upsampling operator (a BPDA-style substitute, §IV-C/V-B of
  the paper).  Any attempt to read the true input gradient raises
  :class:`~repro.tee.errors.EnclaveAccessError`.

Both views expose the same interface, so every attack in
:mod:`repro.attacks` runs unchanged in the shielded and non-shielded
settings — exactly how the paper evaluates PELTA.

Both views run their gradient queries through an *execution backend*
(:mod:`repro.autodiff.capture`), held as ``view.backend``.  A view starts
eager, rebuilding the autodiff graph per query; the attack driver's
``DriverConfig(backend="captured")`` switches it to recording the graph once
per (objective, input shape) and replaying it with reused buffers, which
gives bit-identical gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.capture import EagerExecution, TraceHandles
from repro.autodiff.context import frozen_parameters, no_grad
from repro.autodiff.tensor import Tensor
from repro.core.shielded_model import ShieldedModel
from repro.models.base import ImageClassifier
from repro.tee.errors import EnclaveAccessError

#: Upsampling operator signature: maps the frontier adjoint back to input shape.
Upsampler = Callable[[np.ndarray, tuple[int, ...]], np.ndarray]


def _objective(logits: Tensor, labels: np.ndarray, loss: str, confidence: float) -> Tensor:
    """Build the scalar objective whose input-gradient the attacker follows."""
    if loss == "ce":
        return F.cross_entropy(logits, labels, reduction="sum")
    if loss == "margin":
        return F.margin_loss(logits, labels, confidence=confidence)
    raise ValueError(f"unknown attack loss {loss!r}")


def _replay_rebinds(model) -> list[tuple[object, str, object]]:
    """Side-channel attributes a captured replay must re-point at its graph.

    Collected right after the record-time forward pass: the shielded model's
    frontier tensors and every attention module's ``last_attention_weights``
    are attributes the forward pass rebinds, so a replay (which runs no layer
    code) restores them to the recorded objects whose buffers it refreshed.
    """
    rebinds: list[tuple[object, str, object]] = []
    if isinstance(model, ShieldedModel):
        rebinds.append((model, "last_frontier", model.last_frontier))
        rebinds.append((model, "last_input", model.last_input))
        rebinds.append((model, "last_crossings", model.last_crossings))
        base = model.model
    else:
        base = model
    for module in base.modules():
        weights = getattr(module, "last_attention_weights", None)
        if weights is not None:
            rebinds.append((module, "last_attention_weights", weights))
    return rebinds


def _per_sample_loss(
    logits: np.ndarray, labels: np.ndarray, loss: str, confidence: float
) -> np.ndarray:
    """Per-sample value of the attack objective (visible to the attacker)."""
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(len(labels))
    if loss == "ce":
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -log_probs[rows, labels]
    if loss == "margin":
        target = logits[rows, labels]
        masked = logits.copy()
        masked[rows, labels] = -np.inf
        other = masked.max(axis=1)
        return np.maximum(other - target, -confidence)
    raise ValueError(f"unknown attack loss {loss!r}")


class FullWhiteBoxView:
    """White-box oracle over a non-shielded model: exact ∇_x L."""

    def __init__(self, model: ImageClassifier | ShieldedModel):
        self.model = model
        self.num_classes = model.num_classes
        self.shielded = isinstance(model, ShieldedModel)
        self.backend = EagerExecution()
        base = model.model if isinstance(model, ShieldedModel) else model
        self._frozen = tuple(base.parameters())
        # Identity-hashed capture-key token: unlike id(model), it is kept
        # alive inside cached keys, so a recording can never be replayed for
        # a different model reusing a garbage-collected model's address.
        self._trace_token = object()

    def _trace_key(self, loss: str, confidence: float, labels: np.ndarray):
        return (self._trace_token, loss, float(confidence), labels.tobytes())

    def logits(self, inputs: np.ndarray) -> np.ndarray:
        """Logits of a numpy batch (no gradients recorded)."""
        return self.model.logits(np.asarray(inputs))

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted classes of a numpy batch."""
        return self.logits(inputs).argmax(axis=1)

    def loss(
        self, inputs: np.ndarray, labels: np.ndarray, loss: str = "ce", confidence: float = 0.0
    ) -> np.ndarray:
        """Per-sample attack objective values."""
        return _per_sample_loss(self.logits(inputs), labels, loss, confidence)

    def gradient(
        self, inputs: np.ndarray, labels: np.ndarray, loss: str = "ce", confidence: float = 0.0
    ) -> np.ndarray:
        """Exact gradient of the attack objective with respect to the input."""
        labels = np.asarray(labels, dtype=np.int64)

        def trace(array: np.ndarray) -> TraceHandles:
            input_tensor = Tensor(array, requires_grad=True, is_input=True, name="input")
            logits = self.model(input_tensor)
            objective = _objective(logits, labels, loss, confidence)
            return TraceHandles(
                objective=objective, input=input_tensor, rebinds=_replay_rebinds(self.model)
            )

        # Freeze parameters across record *and* replay: the backward closures
        # read ``requires_grad`` at call time and skip parameter gradients,
        # which input-gradient queries never need.
        with frozen_parameters(self._frozen):
            handles = self.backend.run(
                trace, np.asarray(inputs), key=self._trace_key(loss, confidence, labels)
            )
        return np.array(handles.input.grad)

    def attention_maps(self) -> list[np.ndarray]:
        """Attention maps of the last forward pass (empty for CNNs)."""
        return self.model.attention_maps()


class RestrictedWhiteBoxView:
    """Restricted white-box oracle over a PELTA-shielded model.

    The attacker device still computes gradients (that is the premise of the
    threat model), but the shielded quantities never leave the enclave: the
    only backward-pass value this view exposes is the frontier adjoint, and
    :meth:`gradient` returns the attacker's *upsampled substitute* of ∇_x L,
    never the true gradient.
    """

    def __init__(self, model: ShieldedModel, upsampler: Upsampler):
        if not isinstance(model, ShieldedModel):
            raise TypeError("RestrictedWhiteBoxView requires a ShieldedModel")
        self.model = model
        self.upsampler = upsampler
        self.num_classes = model.num_classes
        self.shielded = True
        self.backend = EagerExecution()
        self._frozen = tuple(model.model.parameters())
        # See FullWhiteBoxView: identity token, gc-safe unlike id(model).
        self._trace_token = object()

    def _trace_key(self, loss: str, confidence: float, labels: np.ndarray):
        return (self._trace_token, loss, float(confidence), labels.tobytes())

    def logits(self, inputs: np.ndarray) -> np.ndarray:
        """Logits of a numpy batch (clear: the model output is public)."""
        return self.model.logits(np.asarray(inputs))

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted classes of a numpy batch."""
        return self.logits(inputs).argmax(axis=1)

    def loss(
        self, inputs: np.ndarray, labels: np.ndarray, loss: str = "ce", confidence: float = 0.0
    ) -> np.ndarray:
        """Per-sample attack objective values (clear: computed from logits)."""
        return _per_sample_loss(self.logits(inputs), labels, loss, confidence)

    def adjoint(
        self, inputs: np.ndarray, labels: np.ndarray, loss: str = "ce", confidence: float = 0.0
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Adjoint δ_{L+1} of the shallowest clear layer, and the input shape.

        This is everything the backward pass leaks to the attacker under
        PELTA: the gradient of the objective with respect to the stem output.
        """
        inputs = np.asarray(inputs)
        labels = np.asarray(labels, dtype=np.int64)

        def trace(array: np.ndarray) -> TraceHandles:
            input_tensor = Tensor(array, requires_grad=True, is_input=True, name="input")
            logits = self.model(input_tensor)
            objective = _objective(logits, labels, loss, confidence)
            return TraceHandles(
                objective=objective, input=input_tensor, rebinds=_replay_rebinds(self.model)
            )

        with frozen_parameters(self._frozen):
            self.backend.run(trace, inputs, key=self._trace_key(loss, confidence, labels))
        frontier = self.model.last_frontier
        if frontier is None or frontier.grad is None:
            raise RuntimeError("no frontier adjoint was produced by the backward pass")
        return np.array(frontier.grad), inputs.shape

    def gradient(
        self, inputs: np.ndarray, labels: np.ndarray, loss: str = "ce", confidence: float = 0.0
    ) -> np.ndarray:
        """The attacker's substitute gradient: the upsampled frontier adjoint."""
        adjoint, input_shape = self.adjoint(inputs, labels, loss=loss, confidence=confidence)
        return self.upsampler(adjoint, input_shape)

    def true_input_gradient(self, *args, **kwargs) -> np.ndarray:
        """The true ∇_x L is shielded; reading it is an enclave violation."""
        raise EnclaveAccessError(
            "the gradient of the loss with respect to the input is shielded by PELTA"
        )

    def attention_maps(self) -> list[np.ndarray]:
        """Attention maps of the clear trunk (still visible to the attacker)."""
        return self.model.attention_maps()

