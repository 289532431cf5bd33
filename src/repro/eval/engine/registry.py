"""Declarative scenario registry.

Every table / figure of the paper — and any user-defined experiment — is a
registered :class:`ScenarioSpec`: a name, a kind, a description and the keys
each scale preset (``tiny`` / ``bench`` / ``full``) sets.  A kind, one row of
:data:`SCENARIO_KINDS`, names the dataclass that declares its parameters
(their types and their one default), the ``ExperimentEngine`` method that
runs it and the :mod:`repro.eval.tables` function that renders its JSON
results.

:func:`build_scenario` routes preset keys and overrides by one rule: a key
naming a field of the kind's params class goes to ``Scenario.params``, any
other key to the shared :class:`ExperimentConfig`, and a key that is in
neither raises.  Each value is cast to its field's declared type (a tuple
field accepts a bare scalar), so an ill-typed override fails when the
scenario is built, before anything trains.

New scenarios are data::

    register_scenario(ScenarioSpec(
        "table3_cifar10_cnn",
        "individual",
        "Table III with the small CNN only; reason: ...",
        presets={scale: {"models": "simple_cnn"} for scale in SCALES},
    ))
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.attacks.configs import AttackSuiteConfig
from repro.eval.engine.cells import CURVE_ATTACKS
from repro.eval.tables import (
    format_budget_curve,
    format_federated,
    format_fig3,
    format_fig4,
    format_robustness_curve,
    format_serving_tail_latency,
    format_table3,
    format_table4,
    format_upsampling_ablation,
)
from repro.models.registry import MODEL_REGISTRY

#: Default number of classes for each benchmark dataset stand-in.
_DATASET_CLASSES = {"cifar10": 10, "cifar100": 100, "imagenet": 20}

#: The white-box suite of Table III.
_TABLE3_ATTACKS = ("fgsm", "pgd", "mim", "cw", "apgd")


@dataclass
class ExperimentConfig:
    """Shared configuration for the Table III / Table IV experiments."""

    dataset: str = "cifar10"
    models: tuple[str, ...] = ("vit_b16", "resnet56")
    attacks: tuple[str, ...] = _TABLE3_ATTACKS
    num_classes: int | None = None
    image_size: int = 32
    train_per_class: int = 48
    test_per_class: int = 16
    train_epochs: int = 3
    train_lr: float = 2e-3
    train_batch_size: int = 32
    eval_samples: int = 64
    attack_batch_size: int = 32
    epsilon_scale: float = 1.0
    max_attack_steps: int = 20
    apgd_steps: int = 30
    upsampling_strategy: str = "auto"
    #: Autodiff execution mode for gradient queries: "captured" records the
    #: graph once per (attack, batch shape) and replays it with reused
    #: buffers — bit-identical to "eager", just faster on iterative attacks.
    attack_backend: str = "captured"
    # Ensemble-specific settings (Table IV)
    ensemble_vit: str = "vit_l16"
    ensemble_cnn: str = "bit_m_r101x3"
    saga_steps: int = 20
    #: Optional override of SAGA's CNN weighting factor (None keeps Table II's
    #: value).  On the synthetic substrate the member gradients have similar
    #: magnitude, so a balanced factor makes SAGA target both members as it
    #: does in the paper's evaluation.
    saga_alpha_cnn: float | None = 0.5

    def resolved_num_classes(self) -> int:
        if self.num_classes is not None:
            return self.num_classes
        return _DATASET_CLASSES.get(self.dataset, 10)

    def attack_suite_config(self) -> AttackSuiteConfig:
        return AttackSuiteConfig(
            dataset=self.dataset,
            epsilon_scale=self.epsilon_scale,
            max_steps=self.max_attack_steps,
            apgd_steps=self.apgd_steps,
        )


def _check_choice(value: str, known, what: str) -> None:
    """Reject an unknown name up front, so a typo fails before anything trains."""
    if value not in known:
        raise ValueError(f"unknown {what} {value!r}; expected one of {tuple(known)}")


# --------------------------------------------------------------------------- #
# Scenario parameters, one dataclass per kind
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioParams:
    """Parameters of a kind beyond the ExperimentConfig (Table III / IV have none)."""

    def config_defaults(self) -> dict[str, Any]:
        """ExperimentConfig keys these parameters imply; presets and overrides win."""
        return {}


@dataclass
class SagaSampleParams(ScenarioParams):
    """Fig. 4: which correctly classified sample SAGA attacks."""

    sample_index: int = 0


@dataclass
class GeometryParams(ScenarioParams):
    """Fig. 3: the ε-ball and step schedule on the 2-D toy problem."""

    epsilon: float = 0.5
    step_size: float = 0.08
    steps: int = 12


@dataclass
class SingleModelParams(ScenarioParams):
    """A kind that attacks one defender; the config's ``models`` lists it."""

    model: str = "vit_b16"

    def config_defaults(self) -> dict[str, Any]:
        return {"models": (self.model,)}


@dataclass
class UpsamplingParams(SingleModelParams):
    """Ablation: attacker substitutes for the shielded stem's gradient."""

    model: str = "bit_m_r101x3"
    #: Compared against the white-box and random-noise baselines.
    strategies: tuple[str, ...] = ("transposed_conv", "average")


@dataclass
class BudgetCurveParams(SingleModelParams):
    """Attack engine: success rate vs gradient-query budget, per shield setting."""

    attack: str = "pgd"
    settings: tuple[str, ...] = ("clear", "shielded")

    def __post_init__(self):
        _check_choice(self.attack, _TABLE3_ATTACKS, "budget-curve attack")


@dataclass
class RobustnessCurveParams(SingleModelParams):
    """Attack engine: success rate vs ε, clear and shielded."""

    attack: str = "pgd"
    epsilons: tuple[float, ...] = (0.015, 0.031, 0.062, 0.124)

    def __post_init__(self):
        _check_choice(self.attack, CURVE_ATTACKS, "robustness-curve attack")


@dataclass
class FederatedParams(ScenarioParams):
    """The fl_* federation: population, local training, attackers and task knobs."""

    #: Task runner in :mod:`repro.eval.engine.federated`.
    task: str = "fedavg"
    model: str = "simple_cnn"
    num_clients: int = 4
    num_rounds: int = 2
    local_epochs: int = 1
    client_batch_size: int = 16
    client_lr: float = 0.05
    client_fraction: float = 1.0
    #: "iid" or "dirichlet" (with ``dirichlet_alpha``).
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    aggregation: str = "fedavg"
    #: The last ``num_compromised`` clients attack the federation.
    num_compromised: int = 0
    boost_factor: float = 25.0
    poison_target: int = 0
    poison_fraction: float = 0.5
    trim_fraction: float = 0.25
    trigger_size: int = 3
    #: Aggregation rules the robust_aggregation task compares.
    rules: tuple[str, ...] = ("fedavg", "trimmed_mean", "median")
    #: Poisoned-data fractions the poisoning task sweeps.
    fractions: tuple[float, ...] = (0.0, 0.5)
    #: Evasion attack the shielded_global task runs on its trained global
    #: model, clear and shielded (an ε-bounded suite attack).
    attack: str = "pgd"

    def __post_init__(self):
        # Imported at call time: the federated runner imports this module,
        # and so does repro.fl, through its transport's executor.
        from repro.eval.engine.federated import TASKS
        from repro.fl.aggregation import AGGREGATION_RULES

        _check_choice(self.task, TASKS, "task")
        _check_choice(self.partition, ("iid", "dirichlet"), "partition")
        _check_choice(self.aggregation, AGGREGATION_RULES, "aggregation")
        for rule in self.rules:
            _check_choice(rule, AGGREGATION_RULES, "rules entry")
        _check_choice(self.attack, CURVE_ATTACKS, "federated evasion attack")


@dataclass
class GatewayParams(ScenarioParams):
    """The serving gateway's virtual-clock load sweep; the defaults are bench scale.

    ``requests`` is the open-loop arrival count per load point and
    ``num_sessions`` the sealed-session population.  The gateway only
    calibrates its stage costs against ``model`` (FLOP metadata), so the big
    sweeps stay cheap.
    """

    model: str = "vit_b32"
    requests: int = 20_000
    num_sessions: int = 100_000
    max_batch: int = 8
    max_wait_us: float = 4000.0
    replicas: int = 2
    loads: tuple[float, ...] = (0.5, 0.8, 0.95)
    policies: tuple[str, ...] = ("continuous", "static")
    #: Absolute SLO target; None makes it ``slo_forward_multiple`` full forwards.
    slo_us: float | None = None
    slo_forward_multiple: float = 4.0
    max_queue_depth: int = 512
    max_per_session: int = 8
    gflops: float = 2.0
    #: The SLO gate: at ``gate_load`` the continuous policy must hold the SLO
    #: for at least ``gate_attainment`` of completed requests.
    gate_load: float = 0.8
    gate_attainment: float = 0.95

    def __post_init__(self):
        # Imported at call time, as the gateway runner imports the gateway.
        from repro.serve.gateway import GATEWAY_POLICIES

        for policy in self.policies:
            _check_choice(policy, GATEWAY_POLICIES, "policies entry")


@dataclass(frozen=True)
class ScenarioKind:
    """What the engine knows about one kind of scenario."""

    #: Dataclass declaring the kind's parameters: names, types, defaults.
    params: type[ScenarioParams]
    #: Name of the ``ExperimentEngine`` method that runs it.
    runner: str
    #: Formats the JSON form of its results.
    renderer: Callable[[Any], str]


#: Every kind the engine can run and render.
SCENARIO_KINDS: dict[str, ScenarioKind] = {
    "individual": ScenarioKind(ScenarioParams, "_run_individual", format_table3),
    "ensemble": ScenarioKind(ScenarioParams, "_run_ensemble", format_table4),
    "saga_samples": ScenarioKind(SagaSampleParams, "_run_saga_samples", format_fig4),
    "geometry": ScenarioKind(GeometryParams, "_run_geometry", format_fig3),
    "upsampling": ScenarioKind(UpsamplingParams, "_run_upsampling", format_upsampling_ablation),
    "federated": ScenarioKind(FederatedParams, "_run_federated", format_federated),
    "budget_curve": ScenarioKind(BudgetCurveParams, "_run_budget_curve", format_budget_curve),
    "robustness_curve": ScenarioKind(
        RobustnessCurveParams, "_run_robustness_curve", format_robustness_curve
    ),
    "serving_tail_latency": ScenarioKind(
        GatewayParams, "_run_serving_tail_latency", format_serving_tail_latency
    ),
}


# --------------------------------------------------------------------------- #
# Typed construction: one cast per value, from the field's declared type
# --------------------------------------------------------------------------- #
@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """Declared type of every field of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {item.name: hints[item.name] for item in dataclasses.fields(cls)}


def _coerce(key: str, value: Any, hint: Any) -> Any:
    """Cast one preset or override value to its field's declared type.

    A tuple field takes a bare scalar as a one-element tuple, ``X | None``
    takes None, and int and float are cast; a str field takes only a str and
    a bool field a bool (or 0 / 1).  A value that does not cast, or a
    fractional float for an int field, raises ValueError.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        items = (value,) if value is None or isinstance(value, (str, int, float)) else value
        return tuple(_coerce(key, item, args[0]) for item in items)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
    invalid = ValueError(f"{key}={value!r} is not a valid {hint.__name__}")
    if value is None:
        raise invalid
    if hint is str:
        if isinstance(value, str):
            return value
        raise invalid
    if hint is bool:
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise invalid
    try:
        cast = hint(value)
    except (TypeError, ValueError):
        raise invalid from None
    if hint is int and isinstance(value, float) and cast != value:
        raise invalid
    return cast


def _typed(cls: type, values: Mapping[str, Any]):
    """Instantiate dataclass ``cls`` from ``values``, each cast to its field's type."""
    types = _field_types(cls)
    for key in values:
        if key not in types:
            raise TypeError(f"unknown {cls.__name__} field {key!r}")
    return cls(**{key: _coerce(key, value, types[key]) for key, value in values.items()})


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment: a kind, its config and its parameters.

    ``params`` is normalised through the kind's params class, so missing keys
    take their declared defaults and every value has its field's type.  It
    stays a plain dict, the form the JSON run record stores.  ``scale`` is
    the preset the scenario was built at, and the one its run record states.
    """

    name: str
    kind: str
    config: ExperimentConfig
    description: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    scale: str = "bench"

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; expected {tuple(SCENARIO_KINDS)}"
            )
        _check_choice(self.scale, SCALES, "scale")
        params = _typed(SCENARIO_KINDS[self.kind].params, self.params)
        object.__setattr__(self, "params", dataclasses.asdict(params))


# --------------------------------------------------------------------------- #
# Scale presets
# --------------------------------------------------------------------------- #
#: Experiment-config presets; ``tiny`` targets unit tests / CLI smoke runs,
#: ``bench`` a laptop benchmark sweep, ``full`` the EXPERIMENTS.md runs.
SCALES: dict[str, dict[str, Any]] = {
    "tiny": dict(
        image_size=16,
        train_per_class=24,
        test_per_class=6,
        train_epochs=6,
        train_lr=5e-3,
        eval_samples=10,
        attack_batch_size=10,
        max_attack_steps=4,
        apgd_steps=4,
        saga_steps=4,
        epsilon_scale=2.0,
    ),
    "bench": dict(
        train_per_class=32,
        test_per_class=12,
        train_epochs=4,
        train_lr=3e-3,
        eval_samples=12,
        attack_batch_size=12,
        max_attack_steps=5,
        apgd_steps=6,
        saga_steps=5,
        epsilon_scale=1.0,
    ),
    "full": dict(
        train_per_class=64,
        test_per_class=24,
        train_epochs=5,
        train_lr=3e-3,
        eval_samples=100,
        attack_batch_size=32,
        max_attack_steps=20,
        apgd_steps=30,
        saga_steps=20,
        epsilon_scale=1.0,
    ),
}


def scaled_experiment_config(scale: str = "bench", **overrides) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a scale preset plus overrides."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    return _typed(ExperimentConfig, {**SCALES[scale], **overrides})


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario, as data.

    ``presets[scale]`` holds the keys the scenario sets at that scale.  They
    are routed exactly like overrides, which take precedence over them.
    ``dataset`` is fixed: an override naming it raises TypeError, so a run
    is always recorded under the dataset it used.  None (Fig. 3, whose toy
    problem uses no dataset) leaves it an ordinary config key.
    """

    name: str
    kind: str
    description: str
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    dataset: str | None = "cifar10"


_SPECS: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> None:
    """Register a scenario declaration under ``spec.name``."""
    if spec.name in _SPECS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    if spec.kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {spec.kind!r}; expected {tuple(SCENARIO_KINDS)}")
    _SPECS[spec.name] = spec


def unregister_scenario(name: str) -> None:
    """Remove a registered scenario (test helper)."""
    _SPECS.pop(name, None)


def list_scenarios() -> dict[str, str]:
    """Mapping of every registered scenario name to its description."""
    return {name: _SPECS[name].description for name in sorted(_SPECS)}


def scenario_catalog() -> list[dict[str, Any]]:
    """One row per registered scenario: name, kind, scales, description."""
    return [
        {
            "name": name,
            "kind": _SPECS[name].kind,
            "scales": tuple(SCALES),
            "description": description,
        }
        for name, description in list_scenarios().items()
    ]


def build_scenario(name: str, scale: str = "bench", **overrides) -> Scenario:
    """Instantiate a registered scenario at ``scale``: its presets, then ``overrides``.

    A key naming a field of the kind's params class sets that parameter; any
    other key sets an :class:`ExperimentConfig` field.  The spec's fixed
    ``dataset`` is applied last and cannot be overridden.
    """
    if name not in _SPECS:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(_SPECS)}")
    spec = _SPECS[name]
    params_class = SCENARIO_KINDS[spec.kind].params
    param_keys: dict[str, Any] = {}
    config_keys: dict[str, Any] = {}
    for key, value in {**spec.presets.get(scale, {}), **overrides}.items():
        (param_keys if key in _field_types(params_class) else config_keys)[key] = value
    if spec.dataset is not None:
        if "dataset" in overrides:
            raise TypeError(f"scenario {name!r} fixes dataset={spec.dataset!r}")
        config_keys["dataset"] = spec.dataset
    params = _typed(params_class, param_keys)
    config = scaled_experiment_config(scale, **{**params.config_defaults(), **config_keys})
    scenario = Scenario(
        name=name,
        kind=spec.kind,
        config=config,
        description=spec.description,
        params=dataclasses.asdict(params),
        scale=scale,
    )
    _check_names(scenario)
    return scenario


def _check_names(scenario: Scenario) -> None:
    """Reject an unknown Table III attack or model before anything trains."""
    config = scenario.config
    for attack in config.attacks:
        _check_choice(attack, _TABLE3_ATTACKS, "Table III attack")
    models = [*config.models, config.ensemble_vit, config.ensemble_cnn]
    if "model" in scenario.params:
        models.append(scenario.params["model"])
    for model in models:
        _check_choice(model, tuple(sorted(MODEL_REGISTRY)), "model")


# --------------------------------------------------------------------------- #
# Built-in scenarios.  Each description ends with the reason the scenario
# exists: a paper table or figure, a BENCHMARK.json workload, a CI step or
# benchmarks/bench_*.py file, or a ROADMAP item.
# --------------------------------------------------------------------------- #
def _presets(
    per_scale: Mapping[str, Mapping[str, Any]] | None = None, **every_scale
) -> dict[str, dict[str, Any]]:
    """Preset keys of each scale: ``per_scale[scale]``, then the shared ``every_scale``."""
    per_scale = per_scale or {}
    return {scale: {**per_scale.get(scale, {}), **every_scale} for scale in SCALES}


#: Defender line-up of each Table III dataset block, per scale.
TABLE3_MODELS: dict[str, dict[str, tuple[str, ...]]] = {
    "tiny": {
        "cifar10": ("simple_cnn",),
        "cifar100": ("simple_cnn",),
        "imagenet": ("simple_cnn",),
    },
    "bench": {
        "cifar10": ("vit_l16", "resnet56", "bit_m_r101x3"),
        "cifar100": ("vit_b16",),
        "imagenet": ("vit_b16", "bit_m_r101x3"),
    },
    "full": {
        "cifar10": ("vit_l16", "vit_b16", "vit_b32", "resnet56", "resnet164", "bit_m_r101x3"),
        "cifar100": ("vit_l16", "vit_b16", "vit_b32", "resnet56", "resnet164", "bit_m_r101x3"),
        "imagenet": ("vit_l16", "vit_b16", "bit_m_r101x3", "bit_m_r152x4"),
    },
}

#: Reduced class counts keep the per-class sample budget meaningful below
#: full scale (mirrors the paper's dataset sizes at full scale).
DATASET_CLASSES: dict[str, dict[str, int | None]] = {
    "tiny": {"cifar10": None, "cifar100": 8, "imagenet": 6},
    "bench": {"cifar10": None, "cifar100": 20, "imagenet": 10},
    "full": {"cifar10": None, "cifar100": 100, "imagenet": 20},
}

#: Table IV CNN member per dataset (the paper pairs ImageNet with R152x4).
ENSEMBLE_CNN = {"cifar10": "bit_m_r101x3", "cifar100": "bit_m_r101x3", "imagenet": "bit_m_r152x4"}


def _ensemble_members(scale: str, dataset: str) -> dict[str, str]:
    """Table IV / Fig. 4 members: ViT-L/16 and the paper's BiT, small stand-ins at tiny."""
    if scale == "tiny":
        return {"ensemble_vit": "vit_b32", "ensemble_cnn": "simple_cnn"}
    return {"ensemble_vit": "vit_l16", "ensemble_cnn": ENSEMBLE_CNN[dataset]}


for _dataset in ("cifar10", "cifar100", "imagenet"):
    _reason = "paper Table III"
    if _dataset == "cifar10":
        _reason += ", BENCHMARK.json table3_vit_l16/table3_bit_r101x3, CI backend-parity smoke"
    register_scenario(
        ScenarioSpec(
            f"table3_{_dataset}",
            "individual",
            f"Table III — individual defenders vs the white-box suite ({_dataset} stand-in); "
            f"reason: {_reason}",
            {
                scale: {
                    "models": TABLE3_MODELS[scale][_dataset],
                    "num_classes": DATASET_CLASSES[scale][_dataset],
                }
                for scale in SCALES
            },
            dataset=_dataset,
        )
    )
    register_scenario(
        ScenarioSpec(
            f"table4_{_dataset}",
            "ensemble",
            "Table IV — ViT+BiT ensemble vs SAGA under four shield settings "
            f"({_dataset} stand-in); reason: paper Table IV",
            {
                scale: {
                    "num_classes": DATASET_CLASSES[scale][_dataset],
                    **_ensemble_members(scale, _dataset),
                }
                for scale in SCALES
            },
            dataset=_dataset,
        )
    )

register_scenario(
    ScenarioSpec(
        "fig3_geometry",
        "geometry",
        "Figure 3 — attack geometry on the 2-D toy problem; reason: paper Fig. 3",
        dataset=None,
    )
)
register_scenario(
    ScenarioSpec(
        "fig4_saga_sample",
        "saga_samples",
        "Figure 4 — SAGA on one sample per shield setting; reason: paper Fig. 4",
        {scale: _ensemble_members(scale, "cifar10") for scale in SCALES},
    )
)

# --------------------------------------------------------------------------- #
# Federated (fl_*) scenarios — executed by the federation runtime
# --------------------------------------------------------------------------- #
#: Federation shape per scale (clients, rounds, local training, attackers).
#: The federation splits one dataset across all clients, so it needs more
#: data per class than the single-defender experiments at the same scale.
FL_SCALES: dict[str, dict[str, Any]] = {
    "tiny": dict(
        num_clients=4,
        num_rounds=2,
        local_epochs=1,
        client_batch_size=16,
        client_lr=0.05,
        num_compromised=1,
        fractions=(0.0, 0.5),
        train_per_class=24,
    ),
    "bench": dict(
        num_clients=8,
        num_rounds=4,
        local_epochs=4,
        client_batch_size=16,
        client_lr=0.05,
        num_compromised=2,
        fractions=(0.0, 0.25, 0.5),
        train_per_class=64,
    ),
    "full": dict(
        num_clients=16,
        num_rounds=5,
        local_epochs=3,
        client_batch_size=32,
        client_lr=0.05,
        num_compromised=4,
        fractions=(0.0, 0.1, 0.25, 0.5),
        train_per_class=96,
    ),
}

#: Federation shape of the thousand-client scale sweep.  Clients are all
#: honest and data per client is tiny (but at least one sample each: 10
#: classes x per-class >= clients) — the scenario measures the *server's*
#: round machinery (transport fan-out, streaming aggregation), not local
#: convergence.
FL_THOUSAND_SCALES: dict[str, dict[str, Any]] = {
    "tiny": dict(num_clients=64, num_rounds=1, client_batch_size=8, train_per_class=24),
    "bench": dict(num_clients=1000, num_rounds=1, client_batch_size=8, train_per_class=128),
    "full": dict(num_clients=2000, num_rounds=2, client_batch_size=8, train_per_class=224),
}

register_scenario(
    ScenarioSpec(
        "fl_fedavg",
        "federated",
        "Federated — FedAvg over the federation runtime; "
        "reason: CI FL smoke, bench_fl_round_throughput.py",
        _presets(FL_SCALES, task="fedavg", num_compromised=0),
    )
)
register_scenario(
    ScenarioSpec(
        "fl_robust_aggregation",
        "federated",
        "Federated — trimmed-mean / median vs boosted model-poisoning clients; reason: the "
        "paper's abstract names poisoning the FL scheme's local data as a dissemination strategy",
        _presets(FL_SCALES, task="robust_aggregation"),
    )
)
register_scenario(
    ScenarioSpec(
        "fl_poisoning",
        "federated",
        "Federated — backdoor success vs poisoned-data fraction; reason: the paper's abstract "
        "names poisoning the FL scheme's local data as a dissemination strategy",
        _presets(FL_SCALES, task="poisoning"),
    )
)
register_scenario(
    ScenarioSpec(
        "fl_thousand_clients",
        "federated",
        "Federated — thousand-client rounds: transport fan-out + streaming aggregation; "
        "reason: BENCHMARK.json fl_thousand_clients, CI FL scale smoke",
        # A small image size keeps the per-client model cheap: the scenario
        # stresses the server's round machinery, not local training.
        _presets(FL_THOUSAND_SCALES, task="thousand_clients", image_size=16, test_per_class=6),
    )
)
register_scenario(
    ScenarioSpec(
        "fl_shielded_global",
        "federated",
        "Federated — attested TEE clients train the global model; PGD vs its shield; "
        "reason: the paper's FL deployment, BENCHMARK.json fl_sealed_training",
        _presets(FL_SCALES, task="shielded_global", num_compromised=0),
    )
)

# --------------------------------------------------------------------------- #
# Attack-engine scenarios (driver: active-set shrinking, backend selection)
# --------------------------------------------------------------------------- #
register_scenario(
    ScenarioSpec(
        "attack_budget_curve",
        "budget_curve",
        "Attack engine — success rate vs gradient-query budget (active-set vs fixed); "
        "reason: CI attack smoke, ROADMAP item 7 (captured attack backend)",
        {"tiny": {"model": "simple_cnn"}},
    )
)
register_scenario(
    ScenarioSpec(
        "robustness_curve",
        "robustness_curve",
        "Attack engine — attack success vs ε sweep, clear and shielded (any suite attack); "
        "reason: CI robustness-curve smoke",
        {"tiny": {"model": "simple_cnn"}},
    )
)

# --------------------------------------------------------------------------- #
# Serving-gateway scenario (virtual-clock simulation: tail latency)
# --------------------------------------------------------------------------- #
register_scenario(
    ScenarioSpec(
        "serving_tail_latency",
        "serving_tail_latency",
        "Gateway — p50/p99/p999 vs offered load, continuous vs static batching, SLO-gated; "
        "reason: CI gateway smoke, bench_serving_gateway.py",
        {
            # 10^4 sealed sessions at tiny through 10^6 at full.
            "tiny": dict(
                model="simple_cnn",
                requests=1_500,
                num_sessions=10_000,
                loads=(0.5, 0.8, 1.05),
                max_queue_depth=256,
            ),
            "full": dict(
                requests=200_000,
                num_sessions=1_000_000,
                max_batch=16,
                replicas=4,
                loads=(0.5, 0.8, 0.95, 1.1),
                max_queue_depth=1024,
            ),
        },
    )
)

register_scenario(
    ScenarioSpec(
        "ablation_upsampling",
        "upsampling",
        "Ablation — attacker upsampling substitutes vs a shielded BiT; "
        "reason: bench_ablation_upsampling.py, ROADMAP item 1 (fitted-stem upsampler)",
        {"tiny": {"model": "simple_cnn"}},
    )
)
