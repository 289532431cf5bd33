"""Declarative scenario registry.

Every table / figure of the paper — and any user-defined experiment — is a
named :class:`Scenario`: a kind (which runner to use), a shared
:class:`~repro.eval.harness.ExperimentConfig`, and kind-specific parameters.
Scenarios are built from a *scale* preset (``tiny`` / ``bench`` / ``full``)
plus per-field overrides, so the same entry runs as a seconds-long smoke
test or as the EXPERIMENTS.md configuration.

New scenarios are added with :func:`register_scenario`::

    @register_scenario("table3_svhn", "Table III block on an SVHN stand-in")
    def _table3_svhn(scale, overrides):
        config = scaled_experiment_config(scale, dataset="svhn", **overrides)
        return Scenario(name="table3_svhn", kind="individual", config=config)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.eval.engine.cells import CURVE_ATTACKS
from repro.eval.harness import ExperimentConfig

#: Kinds the runner knows how to execute.
SCENARIO_KINDS = (
    "individual",  # Table III: defenders × attack suite, clear vs shielded
    "ensemble",  # Table IV: SAGA against the two-member ensemble
    "saga_samples",  # Fig. 4: per-sample SAGA study
    "geometry",  # Fig. 3: attack trajectories on the 2-D toy problem
    "upsampling",  # ablation: attacker upsampling substitutes
    "federated",  # fl_*: federation-runtime workloads (FedAvg, robust agg, ...)
    "budget_curve",  # attack engine: success rate vs gradient-query budget
    "robustness_curve",  # attack engine: success rate vs ε sweep
    "serving_throughput",  # serving runtime: batched vs single-request throughput
    "serving_latency",  # serving runtime: latency percentiles vs SLO target
    "serving_tail_latency",  # gateway: p50/p99/p999 vs offered load, SLO-gated
    "serving_soak",  # gateway: sustained open-loop soak with shedding + autoscaling
)


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment entry."""

    name: str
    kind: str
    config: ExperimentConfig
    description: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected {SCENARIO_KINDS}")


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
    values = dict(SCALES[scale])
    values.update(overrides)
    return ExperimentConfig(**values)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
ScenarioBuilder = Callable[[str, dict[str, Any]], Scenario]

_BUILDERS: dict[str, ScenarioBuilder] = {}
_DESCRIPTIONS: dict[str, str] = {}


def register_scenario(name: str, description: str = ""):
    """Register a scenario builder under ``name`` (decorator)."""

    def decorator(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _BUILDERS:
            raise ValueError(f"scenario {name!r} is already registered")
        _BUILDERS[name] = builder
        _DESCRIPTIONS[name] = description
        return builder

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a registered scenario (test helper)."""
    _BUILDERS.pop(name, None)
    _DESCRIPTIONS.pop(name, None)


def list_scenarios() -> dict[str, str]:
    """Mapping of every registered scenario name to its description."""
    return {name: _DESCRIPTIONS.get(name, "") for name in sorted(_BUILDERS)}


def scenario_catalog() -> list[dict[str, Any]]:
    """One row per registered scenario: name, kind, scales, description.

    The kind is learned by building each scenario at the cheapest scale —
    builders are pure configuration construction, so this costs nothing (no
    data is generated and no model is trained).
    """
    rows: list[dict[str, Any]] = []
    for name, description in list_scenarios().items():
        rows.append(
            {
                "name": name,
                "kind": build_scenario(name, scale="tiny").kind,
                "scales": tuple(SCALES),
                "description": description,
            }
        )
    return rows


def build_scenario(name: str, scale: str = "bench", **overrides) -> Scenario:
    """Instantiate a registered scenario at the given scale."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(_BUILDERS)}")
    scenario = _BUILDERS[name](scale, dict(overrides))
    if not scenario.description:
        scenario = replace(scenario, description=_DESCRIPTIONS.get(name, ""))
    return scenario


# --------------------------------------------------------------------------- #
# Built-in scenarios (the paper's tables, figures and ablations)
# --------------------------------------------------------------------------- #
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

_TABLE3_ATTACKS = ("fgsm", "pgd", "mim", "cw", "apgd")


def _register_table3(dataset: str) -> None:
    @register_scenario(
        f"table3_{dataset}",
        f"Table III — individual defenders vs the white-box suite ({dataset} stand-in)",
    )
    def _build(scale: str, overrides: dict[str, Any]) -> Scenario:
        overrides.setdefault("models", TABLE3_MODELS[scale][dataset])
        overrides.setdefault("num_classes", DATASET_CLASSES[scale][dataset])
        overrides.setdefault("attacks", _TABLE3_ATTACKS)
        config = scaled_experiment_config(scale, dataset=dataset, **overrides)
        return Scenario(name=f"table3_{dataset}", kind="individual", config=config)


def _register_table4(dataset: str) -> None:
    @register_scenario(
        f"table4_{dataset}",
        f"Table IV — ViT+BiT ensemble vs SAGA under four shield settings ({dataset} stand-in)",
    )
    def _build(scale: str, overrides: dict[str, Any]) -> Scenario:
        overrides.setdefault("num_classes", DATASET_CLASSES[scale][dataset])
        overrides.setdefault("ensemble_vit", "vit_l16" if scale != "tiny" else "vit_b32")
        overrides.setdefault(
            "ensemble_cnn", ENSEMBLE_CNN[dataset] if scale != "tiny" else "simple_cnn"
        )
        config = scaled_experiment_config(scale, dataset=dataset, **overrides)
        return Scenario(name=f"table4_{dataset}", kind="ensemble", config=config)


for _dataset in ("cifar10", "cifar100", "imagenet"):
    _register_table3(_dataset)
    _register_table4(_dataset)


def _as_tuple(value) -> tuple:
    """Tuple coercion that treats a scalar (or bare string) as one element.

    CLI overrides arrive as bare strings / numbers; without this,
    ``tuple("average")`` would iterate the string character by character.
    """
    if isinstance(value, (str, int, float)):
        return (value,)
    return tuple(value)


@register_scenario("fig3_geometry", "Figure 3 — attack geometry on the 2-D toy problem")
def _fig3(scale: str, overrides: dict[str, Any]) -> Scenario:
    params = {"epsilon": 0.5, "step_size": 0.08, "steps": 12}
    params.update(overrides.pop("params", {}))
    config = scaled_experiment_config(scale, **overrides)
    return Scenario(name="fig3_geometry", kind="geometry", config=config, params=params)


@register_scenario("fig4_saga_sample", "Figure 4 — SAGA on one sample per shield setting")
def _fig4(scale: str, overrides: dict[str, Any]) -> Scenario:
    params = {"sample_index": overrides.pop("sample_index", 0)}
    overrides.setdefault("ensemble_vit", "vit_l16" if scale != "tiny" else "vit_b32")
    overrides.setdefault("ensemble_cnn", "bit_m_r101x3" if scale != "tiny" else "simple_cnn")
    config = scaled_experiment_config(scale, dataset="cifar10", **overrides)
    return Scenario(name="fig4_saga_sample", kind="saga_samples", config=config, params=params)


# --------------------------------------------------------------------------- #
# Federated (fl_*) scenarios — executed by the federation runtime
# --------------------------------------------------------------------------- #
#: Federation shape per scale (clients, rounds, local training, attackers).
FL_SCALES: dict[str, dict[str, Any]] = {
    "tiny": dict(
        num_clients=4,
        num_rounds=2,
        local_epochs=1,
        client_batch_size=16,
        client_lr=0.05,
        num_compromised=1,
        fractions=(0.0, 0.5),
    ),
    "bench": dict(
        num_clients=8,
        num_rounds=4,
        local_epochs=4,
        client_batch_size=16,
        client_lr=0.05,
        num_compromised=2,
        fractions=(0.0, 0.25, 0.5),
    ),
    "full": dict(
        num_clients=16,
        num_rounds=5,
        local_epochs=3,
        client_batch_size=32,
        client_lr=0.05,
        num_compromised=4,
        fractions=(0.0, 0.1, 0.25, 0.5),
    ),
}

#: Per-class training-set size of the federated scenarios (the federation
#: splits one dataset across all clients, so it needs more data per class
#: than the single-defender experiments at the same scale).
_FL_TRAIN_PER_CLASS = {"tiny": 24, "bench": 64, "full": 96}

#: Federation shape of the thousand-client scale sweep (ROADMAP item 3).
#: Clients are all honest and data per client is tiny — the scenario measures
#: the *server's* round machinery (streaming aggregation, sealing fan-out,
#: delta compression), not local convergence.
FL_THOUSAND_SCALES: dict[str, dict[str, Any]] = {
    "tiny": dict(
        num_clients=64,
        num_rounds=1,
        local_epochs=1,
        client_batch_size=8,
        client_lr=0.05,
        num_compromised=0,
    ),
    "bench": dict(
        num_clients=1000,
        num_rounds=1,
        local_epochs=1,
        client_batch_size=8,
        client_lr=0.05,
        num_compromised=0,
    ),
    "full": dict(
        num_clients=2000,
        num_rounds=2,
        local_epochs=1,
        client_batch_size=8,
        client_lr=0.05,
        num_compromised=0,
    ),
}

#: The thousand-client federation still hands every client at least one
#: training sample (10 classes x per-class >= clients).
_FL_THOUSAND_TRAIN_PER_CLASS = {"tiny": 24, "bench": 128, "full": 224}

#: Every parameter the federated task runners consume.  Overrides naming one
#: of these always route to the scenario params — including ones a task has
#: no default for (e.g. ``dirichlet_alpha``) — never to the ExperimentConfig.
_FL_PARAM_KEYS = frozenset(
    {
        "task",
        "model",
        "partition",
        "dirichlet_alpha",
        "aggregation",
        "client_fraction",
        "num_clients",
        "num_rounds",
        "local_epochs",
        "client_batch_size",
        "client_lr",
        "num_compromised",
        "boost_factor",
        "poison_target",
        "poison_fraction",
        "trim_fraction",
        "trigger_size",
        "rules",
        "fractions",
        "attack",
        "compression",
    }
)

#: FL params holding a sequence (a single bare CLI value becomes a 1-tuple).
_FL_TUPLE_KEYS = frozenset({"rules", "fractions"})


def _fl_scenario(
    name: str,
    scale: str,
    overrides: dict[str, Any],
    scales: dict[str, dict[str, Any]] | None = None,
    train_per_class: dict[str, int] | None = None,
    **task_defaults,
) -> Scenario:
    """Shared builder: split CLI overrides between FL params and the config."""
    params = dict((scales if scales is not None else FL_SCALES)[scale])
    params.update(task_defaults)
    # ``--set`` overrides naming an FL parameter go to params, the rest to
    # the ExperimentConfig (dataset sizes, eval budget, ...).  Tuple-typed
    # params (rules, fractions) accept a single bare CLI value.
    for key in list(overrides):
        if key in params or key in _FL_PARAM_KEYS:
            value = overrides.pop(key)
            if key in _FL_TUPLE_KEYS:
                value = _as_tuple(value)
            params[key] = value
    per_class = train_per_class if train_per_class is not None else _FL_TRAIN_PER_CLASS
    overrides.setdefault("train_per_class", per_class[scale])
    config = scaled_experiment_config(scale, dataset="cifar10", **overrides)
    return Scenario(name=name, kind="federated", config=config, params=params)


@register_scenario("fl_fedavg", "Federated — FedAvg over the federation runtime (transport-parallel)")
def _fl_fedavg(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _fl_scenario(
        "fl_fedavg",
        scale,
        overrides,
        task="fedavg",
        model="simple_cnn",
        partition="iid",
        client_fraction=1.0,
        aggregation="fedavg",
        num_compromised=0,
    )


@register_scenario(
    "fl_robust_aggregation",
    "Federated — trimmed-mean / median vs boosted model-poisoning clients",
)
def _fl_robust_aggregation(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _fl_scenario(
        "fl_robust_aggregation",
        scale,
        overrides,
        task="robust_aggregation",
        model="simple_cnn",
        partition="iid",
        rules=("fedavg", "trimmed_mean", "median"),
        boost_factor=25.0,
        poison_target=0,
        poison_fraction=0.5,
        trim_fraction=0.25,
        trigger_size=3,
    )


@register_scenario("fl_poisoning", "Federated — backdoor success vs poisoned-data fraction")
def _fl_poisoning(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _fl_scenario(
        "fl_poisoning",
        scale,
        overrides,
        task="poisoning",
        model="simple_cnn",
        partition="iid",
        poison_target=0,
        trigger_size=3,
    )


@register_scenario(
    "fl_thousand_clients",
    "Federated — thousand-client rounds: streaming aggregation + delta-compressed envelopes",
)
def _fl_thousand_clients(scale: str, overrides: dict[str, Any]) -> Scenario:
    # A small image size keeps the per-client model cheap: the scenario
    # stresses the server's round machinery, not local training.
    overrides.setdefault("image_size", 16)
    overrides.setdefault("test_per_class", 6)
    return _fl_scenario(
        "fl_thousand_clients",
        scale,
        overrides,
        scales=FL_THOUSAND_SCALES,
        train_per_class=_FL_THOUSAND_TRAIN_PER_CLASS,
        task="thousand_clients",
        model="simple_cnn",
        partition="iid",
        client_fraction=1.0,
        aggregation="fedavg",
        compression="none",
    )


@register_scenario(
    "fl_shielded_global",
    "Federated — attested TEE clients train the global model; PGD vs its shield",
)
def _fl_shielded_global(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _fl_scenario(
        "fl_shielded_global",
        scale,
        overrides,
        task="shielded_global",
        model="simple_cnn",
        partition="iid",
        client_fraction=1.0,
        num_compromised=0,
        attack="pgd",
    )


# --------------------------------------------------------------------------- #
# Attack-engine scenarios (driver: active-set shrinking, backend selection)
# --------------------------------------------------------------------------- #
def _checked_attack(overrides: dict[str, Any], known: tuple[str, ...], kind: str) -> str:
    """Pop the ``attack`` override (default PGD), rejecting unknown names up front.

    Checked at build time so a typo fails before the defender trains.
    """
    attack = str(overrides.pop("attack", "pgd"))
    if attack not in known:
        raise KeyError(f"unknown {kind} attack {attack!r}; expected one of {known}")
    return attack


@register_scenario(
    "attack_budget_curve",
    "Attack engine — success rate vs gradient-query budget (active-set vs fixed)",
)
def _attack_budget_curve(scale: str, overrides: dict[str, Any]) -> Scenario:
    params = {
        "model": overrides.pop("model", "vit_b16" if scale != "tiny" else "simple_cnn"),
        "attack": _checked_attack(overrides, _TABLE3_ATTACKS, "budget-curve"),
        "settings": tuple(
            str(setting)
            for setting in _as_tuple(overrides.pop("settings", ("clear", "shielded")))
        ),
    }
    overrides.setdefault("models", (params["model"],))
    config = scaled_experiment_config(scale, dataset="cifar10", **overrides)
    return Scenario(
        name="attack_budget_curve", kind="budget_curve", config=config, params=params
    )


@register_scenario(
    "robustness_curve",
    "Attack engine — attack success vs ε sweep, clear and shielded (any suite attack)",
)
def _robustness_curve(scale: str, overrides: dict[str, Any]) -> Scenario:
    params = {
        "model": overrides.pop("model", "vit_b16" if scale != "tiny" else "simple_cnn"),
        "attack": _checked_attack(overrides, CURVE_ATTACKS, "robustness-curve"),
        "epsilons": tuple(
            float(epsilon)
            for epsilon in _as_tuple(overrides.pop("epsilons", (0.015, 0.031, 0.062, 0.124)))
        ),
    }
    overrides.setdefault("models", (params["model"],))
    config = scaled_experiment_config(scale, dataset="cifar10", **overrides)
    return Scenario(
        name="robustness_curve", kind="robustness_curve", config=config, params=params
    )


# --------------------------------------------------------------------------- #
# Serving-runtime scenarios (partition staging, micro-batching, capture replay)
# --------------------------------------------------------------------------- #
#: Serving workload shape per scale (request count, arrival rate, batching).
SERVING_SCALES: dict[str, dict[str, Any]] = {
    "tiny": dict(
        requests=24,
        inter_arrival_us=200.0,
        max_batch=4,
        max_wait_us=2000.0,
        sealed=2,
    ),
    "bench": dict(
        requests=96,
        inter_arrival_us=150.0,
        max_batch=8,
        max_wait_us=4000.0,
        sealed=4,
    ),
    "full": dict(
        requests=512,
        inter_arrival_us=100.0,
        max_batch=16,
        max_wait_us=8000.0,
        sealed=16,
    ),
}

#: Every parameter the serving runners consume; overrides naming one of these
#: route to the scenario params, never to the ExperimentConfig.
_SERVING_PARAM_KEYS = frozenset(
    {
        "model",
        "requests",
        "inter_arrival_us",
        "max_batch",
        "max_wait_us",
        "capture",
        "sealed",
        "target_us",
        "waits",
    }
)

_SERVING_TUPLE_KEYS = frozenset({"waits"})


def _serving_scenario(
    name: str, kind: str, scale: str, overrides: dict[str, Any], **defaults
) -> Scenario:
    params = dict(SERVING_SCALES[scale])
    # ViTs batch superbly on this substrate (stacked matmuls); the im2col
    # convolutions of the CNN families do not, so the serving presets default
    # to the ViT members (any zoo model still serves via --set model=...).
    params["model"] = "vit_b32" if scale != "tiny" else "simple_cnn"
    params["capture"] = "captured"
    params.update(defaults)
    for key in list(overrides):
        if key in params or key in _SERVING_PARAM_KEYS:
            value = overrides.pop(key)
            if key in _SERVING_TUPLE_KEYS:
                value = tuple(float(item) for item in _as_tuple(value))
            params[key] = value
    config = scaled_experiment_config(scale, dataset="cifar10", **overrides)
    return Scenario(name=name, kind=kind, config=config, params=params)


@register_scenario(
    "serving_throughput",
    "Serving — dynamic micro-batching vs single-request throughput (captured vs eager parity)",
)
def _serving_throughput(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _serving_scenario("serving_throughput", "serving_throughput", scale, overrides)


@register_scenario(
    "serving_latency_slo",
    "Serving — latency percentiles and SLO attainment across max-wait budgets",
)
def _serving_latency_slo(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _serving_scenario(
        "serving_latency_slo",
        "serving_latency",
        scale,
        overrides,
        target_us=50_000.0,
        waits=(0.0, 2000.0, 8000.0),
    )


# --------------------------------------------------------------------------- #
# Serving-gateway scenarios (virtual-clock simulation: tail latency, soak)
# --------------------------------------------------------------------------- #
#: Gateway workload shape per scale.  ``requests`` is the open-loop arrival
#: count per load point; ``num_sessions`` spans the paper-scale sealed-session
#: population (10^4 at tiny through 10^6 at full).
GATEWAY_SCALES: dict[str, dict[str, Any]] = {
    "tiny": dict(
        requests=1_500,
        num_sessions=10_000,
        max_batch=8,
        replicas=2,
        max_replicas=4,
        loads=(0.5, 0.8, 1.05),
        load=1.05,
        max_queue_depth=256,
        max_per_session=8,
    ),
    "bench": dict(
        requests=20_000,
        num_sessions=100_000,
        max_batch=8,
        replicas=2,
        max_replicas=6,
        loads=(0.5, 0.8, 0.95),
        load=1.05,
        max_queue_depth=512,
        max_per_session=8,
    ),
    "full": dict(
        requests=200_000,
        num_sessions=1_000_000,
        max_batch=16,
        replicas=4,
        max_replicas=12,
        loads=(0.5, 0.8, 0.95, 1.1),
        load=1.1,
        max_queue_depth=1024,
        max_per_session=8,
    ),
}

#: Every parameter the gateway runners consume.
_GATEWAY_PARAM_KEYS = frozenset(
    {
        "model",
        "requests",
        "num_sessions",
        "max_batch",
        "max_wait_us",
        "replicas",
        "max_replicas",
        "autoscale",
        "loads",
        "load",
        "policies",
        "slo_us",
        "slo_forward_multiple",
        "attested_fraction",
        "max_queue_depth",
        "max_per_session",
        "gflops",
        "gate_load",
        "gate_attainment",
        "trace",
    }
)

_GATEWAY_TUPLE_KEYS = frozenset({"loads", "policies"})


def _gateway_scenario(
    name: str, kind: str, scale: str, overrides: dict[str, Any], **defaults
) -> Scenario:
    params = dict(GATEWAY_SCALES[scale])
    # The gateway only *calibrates* against the model (FLOP metadata), so the
    # big simulations stay cheap; the default defender matches the serving
    # runtime presets.
    params["model"] = "vit_b32" if scale != "tiny" else "simple_cnn"
    params["max_wait_us"] = 4000.0
    params["policies"] = ("continuous", "static")
    params["slo_us"] = None
    params["slo_forward_multiple"] = 4.0
    params["attested_fraction"] = 1.0
    params["autoscale"] = False
    params["gflops"] = 2.0
    params.update(defaults)
    for key in list(overrides):
        if key in params or key in _GATEWAY_PARAM_KEYS:
            value = overrides.pop(key)
            if key == "loads":
                value = tuple(float(item) for item in _as_tuple(value))
            elif key == "policies":
                value = tuple(str(item) for item in _as_tuple(value))
            params[key] = value
    config = scaled_experiment_config(scale, dataset="cifar10", **overrides)
    return Scenario(name=name, kind=kind, config=config, params=params)


@register_scenario(
    "serving_tail_latency",
    "Gateway — p50/p99/p999 vs offered load, continuous vs static batching, SLO-gated",
)
def _serving_tail_latency(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _gateway_scenario(
        "serving_tail_latency",
        "serving_tail_latency",
        scale,
        overrides,
        gate_load=0.8,
        gate_attainment=0.95,
    )


@register_scenario(
    "serving_soak",
    "Gateway — sustained open-loop soak: admission shedding, autoscaling, conservation invariants",
)
def _serving_soak(scale: str, overrides: dict[str, Any]) -> Scenario:
    return _gateway_scenario(
        "serving_soak",
        "serving_soak",
        scale,
        overrides,
        autoscale=True,
        attested_fraction=0.98,
        policies=("continuous",),
    )


@register_scenario("ablation_upsampling", "Ablation — attacker upsampling substitutes vs a shielded BiT")
def _ablation_upsampling(scale: str, overrides: dict[str, Any]) -> Scenario:
    params = {
        "model": overrides.pop("model", "bit_m_r101x3" if scale != "tiny" else "simple_cnn"),
        "strategies": tuple(
            str(strategy)
            for strategy in _as_tuple(overrides.pop("strategies", ("transposed_conv", "average")))
        ),
    }
    overrides.setdefault("models", (params["model"],))
    config = scaled_experiment_config(scale, dataset="cifar10", **overrides)
    return Scenario(name="ablation_upsampling", kind="upsampling", config=config, params=params)
