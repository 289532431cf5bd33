"""The iterative attack driver: one step loop shared by every attack.

Responsibilities the individual attacks no longer carry:

* **Query accounting** — every gradient view the driver hands to an attack is
  wrapped in a :class:`CountingView` over an explicit :class:`QueryCounter`,
  so query counts survive attack re-use and are reported per-sample in the
  :class:`~repro.attacks.base.AttackResult` (the seed's fragile
  ``getattr(self, "_queries", 0)`` bookkeeping is gone).
* **Active-set shrinking** — before each iteration the driver checks which
  samples already fool the view, freezes them at their last accepted iterate
  (byte-identical — their rows are never touched again) and steps only the
  remainder, cutting gradient queries.  Attacks with fixed-budget semantics
  opt out via ``supports_active_set = False``.
* **Backend selection** — ``DriverConfig.backend`` is the one switch between
  ``eager`` and ``captured`` graph execution: the driver installs it on the
  underlying views, which start eager.  The two produce bit-identical
  adversarials (see :mod:`repro.autodiff.capture`).
* **Callbacks** — observers receive a :class:`StepInfo` before every
  iteration (the hook behind the ``attack_budget_curve`` scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.attacks.base import AttackResult, IterativeAttack
from repro.autodiff.capture import resolve_execution_backend
from repro.autodiff.tensor import get_default_dtype


class QueryCounter:
    """Explicit gradient-query accounting, owned by the driver.

    ``calls`` counts batched gradient invocations (the seed's metric);
    ``per_sample`` counts how many backward passes included each sample —
    the quantity active-set shrinking reduces.
    """

    def __init__(self, num_samples: int):
        self.calls = 0
        self.per_sample = np.zeros(num_samples, dtype=np.int64)
        self._active = np.arange(num_samples)

    def set_active(self, indices: np.ndarray) -> None:
        """Declare which global sample indices the next queries cover."""
        self._active = indices

    def record_gradient_call(self) -> None:
        """Count one batched gradient query against the active samples."""
        self.calls += 1
        self.per_sample[self._active] += 1


class CountingView:
    """Proxy that counts gradient queries issued to a wrapped view."""

    def __init__(self, view, counter: QueryCounter):
        self._view = view
        self._counter = counter

    def gradient(self, inputs, labels, **kwargs) -> np.ndarray:
        self._counter.record_gradient_call()
        return self._view.gradient(inputs, labels, **kwargs)

    def __getattr__(self, name):
        return getattr(self._view, name)


@dataclass
class StepInfo:
    """Snapshot handed to driver callbacks before each iteration."""

    iteration: int
    #: Global indices of the samples about to be stepped.
    active_indices: np.ndarray
    #: Samples the attacker currently fools (over the whole batch).
    fooled: int
    num_samples: int
    #: Batched gradient calls issued so far.
    gradient_calls: int
    #: Sum of per-sample gradient computations issued so far.
    sample_queries: int
    #: Current iterates for the whole batch (read-only; copy before storing).
    adversarials: np.ndarray


@dataclass
class DriverConfig:
    """How the driver executes an attack."""

    #: Execution backend installed on the underlying views ("eager" or
    #: "captured").  The default ``None`` leaves each view's current backend
    #: in place (eager unless an earlier driver switched it).
    backend: str | None = None
    #: Shrink the batch to not-yet-successful samples (attacks opt out via
    #: ``supports_active_set = False``).
    active_set: bool = True


StepCallback = Callable[[StepInfo], None]


class AttackDriver:
    """Executes attacks: counting, shrinking, callbacks, backend selection."""

    def __init__(
        self,
        config: DriverConfig | None = None,
        callbacks: Sequence[StepCallback] = (),
    ):
        self.config = config if config is not None else DriverConfig()
        self.callbacks = list(callbacks)
        # Resolve once so repeated runs share one backend (and its recording
        # cache); ``None`` means "leave each view's own backend in place".
        self._backend = (
            resolve_execution_backend(self.config.backend)
            if self.config.backend is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(
        self, attack: IterativeAttack, view, inputs: np.ndarray, labels: np.ndarray
    ) -> AttackResult:
        """Run ``attack`` against ``view`` (a view, or a tuple for ensembles)."""
        views = view if isinstance(view, tuple) else (view,)
        inputs = np.asarray(inputs, dtype=get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        num_samples = len(labels)
        if self._backend is not None:
            for underlying in views:
                if hasattr(underlying, "backend"):
                    underlying.backend = self._backend
        counter = QueryCounter(num_samples)
        counting_views = tuple(CountingView(v, counter) for v in views)
        adversarials = attack.initialize(counting_views, inputs, labels)
        state = attack.init_state(counting_views, inputs, labels)
        active = np.arange(num_samples)
        shrink = self.config.active_set and attack.supports_active_set
        observe = shrink or bool(self.callbacks)
        fooled_frozen = 0
        for iteration in range(attack.total_steps()):
            if observe and active.size:
                fooled_active = attack.is_successful(
                    counting_views, adversarials[active], labels[active]
                )
                if shrink and fooled_active.any():
                    # Freeze successful samples at their last accepted
                    # iterate: their rows are never written again.
                    fooled_frozen += int(fooled_active.sum())
                    active = active[~fooled_active]
                    fooled_active = fooled_active[~fooled_active]
                fooled_now = fooled_frozen + int(fooled_active.sum())
            else:
                fooled_now = fooled_frozen
            for callback in self.callbacks:
                callback(
                    StepInfo(
                        iteration=iteration,
                        active_indices=active,
                        fooled=fooled_now,
                        num_samples=num_samples,
                        gradient_calls=counter.calls,
                        sample_queries=int(counter.per_sample.sum()),
                        adversarials=adversarials,
                    )
                )
            if shrink and active.size == 0:
                break
            counter.set_active(active)
            if shrink and active.size < num_samples:
                sub_state = {key: value[active] for key, value in state.items()}
            else:
                sub_state = state
            stepped = attack.step(
                counting_views,
                adversarials[active],
                inputs[active],
                labels[active],
                sub_state,
                iteration,
            )
            adversarials[active] = stepped
            if sub_state is not state:
                for key, value in sub_state.items():
                    state[key][active] = value
        adversarials = attack.finalize(counting_views, adversarials, inputs, labels, state)
        success = attack.is_successful(counting_views, adversarials, labels)
        return AttackResult(
            attack_name=attack.name,
            originals=inputs,
            adversarials=adversarials,
            labels=labels,
            success=success,
            gradient_queries=counter.calls,
            queries_per_sample=counter.per_sample.copy(),
        )
