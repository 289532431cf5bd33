"""Engine execution of the federated (``fl_*``) scenario family.

Each scenario builds a client population over the cached synthetic dataset,
drives it through a :class:`~repro.fl.runtime.runtime.FederationRuntime`
whose transport reuses the engine executor's backend choice, and returns a
JSON-able payload (per-round histories plus task-specific metrics):

* ``fl_fedavg`` — plain FedAvg over honest clients; the transport
  throughput baseline;
* ``fl_robust_aggregation`` — model-replacement (boosted) attackers vs
  FedAvg, trimmed mean and coordinate-wise median;
* ``fl_poisoning`` — backdoor success vs poisoned-data fraction under
  FedAvg;
* ``fl_shielded_global`` — TEE-attested clients train the global model over
  sealed channels, then its evasion robustness under ``params["attack"]``
  (PGD by default) is measured with and without the PELTA shield.

Population construction derives all randomness from the global seed plus
stable stream names, so a scenario's results are independent of the
transport backend.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import time

import numpy as np

from repro.attacks.bpda import make_attacker_view
from repro.attacks.configs import table2_parameters
from repro.attacks.pgd import PGD
from repro.core.shielded_model import ShieldedModel
from repro.data.splits import dirichlet_partition, iid_partition
from repro.eval.astuteness import robust_accuracy, select_correctly_classified
from repro.eval.engine.cache import ArtifactCache
from repro.eval.engine.cells import build_curve_attack
from repro.eval.engine.executor import CellExecutor
from repro.eval.engine.registry import Scenario
from repro.fl.aggregation import AGGREGATION_RULES, TrimmedMeanStream
from repro.fl.client import ClientConfig, CompromisedClient, HonestClient, ModelPoisoningClient
from repro.fl.poisoning import add_backdoor_trigger
from repro.fl.runtime import FederationRuntime, Transport
from repro.models.registry import build_model
from repro.tee.enclave import TrustZoneEnclave
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed, get_global_seed

_LOGGER = get_logger("eval.engine.federated")


# --------------------------------------------------------------------------- #
# Population construction
# --------------------------------------------------------------------------- #
def _probe_attack(scenario: Scenario) -> PGD:
    """The (tiny) evasion attack a compromised client probes with."""
    params = table2_parameters(scenario.config.dataset)
    epsilon = params.epsilon * scenario.config.epsilon_scale
    return PGD(
        epsilon=epsilon,
        step_size=epsilon / 4,
        steps=2,
        rng=np.random.default_rng(derive_seed(f"fl.scenario.{scenario.name}.probe")),
    )


def _build_population(scenario: Scenario, cache: ArtifactCache, with_enclaves: bool = False):
    """Build (model_factory, clients, dataset) for a federated scenario."""
    config = scenario.config
    params = scenario.params
    dataset = cache.get_dataset(config)
    model_factory = functools.partial(
        build_model,
        params["model"],
        num_classes=dataset.num_classes,
        image_size=config.image_size,
        in_channels=dataset.image_shape[0],
    )
    num_clients = params["num_clients"]
    partition_rng = np.random.default_rng(
        derive_seed(f"fl.scenario.{scenario.name}.partition")
    )
    if params["partition"] == "dirichlet":
        partitions = dirichlet_partition(
            dataset.train_labels,
            num_clients,
            alpha=params["dirichlet_alpha"],
            rng=partition_rng,
        )
    else:
        partitions = iid_partition(dataset.train_labels, num_clients, rng=partition_rng)
    client_config = ClientConfig(
        local_epochs=params["local_epochs"],
        batch_size=params["client_batch_size"],
        learning_rate=params["client_lr"],
    )
    num_compromised = params["num_compromised"]
    clients: list[HonestClient] = []
    for index, part in enumerate(partitions):
        client_id = f"client{index}"
        kwargs = dict(
            client_id=client_id,
            model_factory=model_factory,
            images=dataset.train_images[part],
            labels=dataset.train_labels[part],
            config=client_config,
        )
        if with_enclaves:
            kwargs["enclave"] = TrustZoneEnclave(name=f"{client_id}.enclave")
        # The last ``num_compromised`` clients attack the federation.
        if index >= num_clients - num_compromised:
            adversarial = dict(
                kwargs,
                attack=_probe_attack(scenario),
                poison_target=params["poison_target"],
                poison_fraction=params["poison_fraction"],
                poison_trigger_size=params["trigger_size"],
            )
            if params["task"] == "robust_aggregation":
                clients.append(
                    ModelPoisoningClient(boost_factor=params["boost_factor"], **adversarial)
                )
            else:
                clients.append(CompromisedClient(**adversarial))
        else:
            clients.append(HonestClient(**kwargs))
    return model_factory, clients, dataset


def _clone_clients(base_clients: list[HonestClient]) -> list[HonestClient]:
    """Deep-copy a population without duplicating its (immutable) datasets.

    Sweeps need fresh models / poisoning state per variant, but the image
    and label arrays are never mutated in place (poisoning copies from the
    pristine data), so the clones share them via the deepcopy memo.
    """
    memo: dict[int, object] = {}
    for client in base_clients:
        for array in (
            client.images,
            client.labels,
            getattr(client, "_clean_images", None),
            getattr(client, "_clean_labels", None),
        ):
            if array is not None:
                memo[id(array)] = array
    return copy.deepcopy(base_clients, memo)


def backdoor_success_rate(
    model, images: np.ndarray, labels: np.ndarray, target_class: int, trigger_size: int = 3
) -> float:
    """Fraction of non-target test samples the trigger steers to the target."""
    mask = np.asarray(labels) != target_class
    if not mask.any():
        return float("nan")
    triggered = add_backdoor_trigger(np.asarray(images)[mask], trigger_size=trigger_size)
    return float((model.predict(triggered) == target_class).mean())


def _round_payload(rounds) -> list[dict]:
    return [dataclasses.asdict(entry) for entry in rounds]


def _run_once(scenario, transport, model, clients, dataset, rule_name) -> tuple:
    """One full federated run under the named rule; returns (runtime, FederatedRunResult)."""
    rule = AGGREGATION_RULES[rule_name]
    if rule is TrimmedMeanStream:
        rule = functools.partial(rule, trim_fraction=scenario.params["trim_fraction"])
    runtime = FederationRuntime(
        global_model=model,
        clients=clients,
        transport=transport,
        aggregation_rule=rule,
        client_fraction=scenario.params["client_fraction"],
    )
    result = runtime.run(
        scenario.params["num_rounds"],
        dataset.test_images,
        dataset.test_labels,
    )
    return runtime, result


def _base_payload(scenario: Scenario, transport, runtime=None) -> dict:
    payload = {
        "task": scenario.params["task"],
        "num_clients": scenario.params["num_clients"],
        "num_rounds": scenario.params["num_rounds"],
        **transport.describe(),
    }
    if runtime is not None:
        payload["secure"] = runtime.secure_stats.as_dict()
    return payload


# --------------------------------------------------------------------------- #
# Task runners
# --------------------------------------------------------------------------- #
def run_fedavg_task(scenario: Scenario, cache: ArtifactCache, transport) -> dict:
    model_factory, clients, dataset = _build_population(scenario, cache)
    runtime, result = _run_once(
        scenario, transport, model_factory(), clients, dataset, scenario.params["aggregation"]
    )
    payload = _base_payload(scenario, transport, runtime)
    payload.update(
        aggregation=scenario.params["aggregation"],
        rounds=_round_payload(result.rounds),
        final_accuracy=result.final_accuracy,
        update_bytes_total=sum(entry.update_bytes for entry in result.rounds),
    )
    return payload


def run_thousand_clients_task(scenario: Scenario, cache: ArtifactCache, transport) -> dict:
    """Thousand-client rounds: streaming-aggregation throughput + bytes-on-wire.

    Runs the configured federation (all-honest, tiny per-client shards) and
    reports wall-clock round throughput plus the rounds' update payload bytes.
    """
    params = scenario.params
    model_factory, clients, dataset = _build_population(scenario, cache)
    start = time.perf_counter()
    runtime, result = _run_once(
        scenario, transport, model_factory(), clients, dataset, params["aggregation"]
    )
    elapsed = time.perf_counter() - start
    num_rounds = max(len(result.rounds), 1)
    payload = _base_payload(scenario, transport, runtime)
    payload.update(
        aggregation=params["aggregation"],
        rounds=_round_payload(result.rounds),
        final_accuracy=result.final_accuracy,
        elapsed_seconds=float(elapsed),
        rounds_per_second=float(num_rounds / elapsed) if elapsed > 0 else float("nan"),
        updates_per_second=(
            float(sum(len(entry.participating_clients) for entry in result.rounds) / elapsed)
            if elapsed > 0
            else float("nan")
        ),
        bytes_on_wire=int(sum(entry.update_bytes for entry in result.rounds)),
    )
    return payload


def run_robust_aggregation_task(scenario: Scenario, cache: ArtifactCache, transport) -> dict:
    params = scenario.params
    model_factory, base_clients, dataset = _build_population(scenario, cache)
    base_model = model_factory()
    rules: dict[str, dict] = {}
    for rule_name in params["rules"]:
        # Fresh deep copies so every rule starts from the same population
        # and initial global model (model init draws from a shared stream).
        clients = _clone_clients(base_clients)
        model = copy.deepcopy(base_model)
        _, result = _run_once(scenario, transport, model, clients, dataset, rule_name)
        rules[rule_name] = {
            "final_accuracy": result.final_accuracy,
            "backdoor_success": backdoor_success_rate(
                model,
                dataset.test_images,
                dataset.test_labels,
                params["poison_target"],
                params["trigger_size"],
            ),
            "rounds": _round_payload(result.rounds),
        }
        _LOGGER.info(
            "robust aggregation rule=%s final_accuracy=%.3f",
            rule_name,
            result.final_accuracy,
        )
    # Built after the runs so the transport name reflects what actually ran.
    payload = _base_payload(scenario, transport)
    payload["num_compromised"] = params["num_compromised"]
    payload["rules"] = rules
    return payload


def run_poisoning_task(scenario: Scenario, cache: ArtifactCache, transport) -> dict:
    params = scenario.params
    model_factory, base_clients, dataset = _build_population(scenario, cache)
    base_model = model_factory()
    sweep: list[dict] = []
    for fraction in params["fractions"]:
        clients = _clone_clients(base_clients)
        for client in clients:
            if getattr(client, "is_compromised", False):
                client.poison_fraction = fraction
        model = copy.deepcopy(base_model)
        _, result = _run_once(scenario, transport, model, clients, dataset, "fedavg")
        sweep.append(
            {
                "poison_fraction": fraction,
                "final_accuracy": result.final_accuracy,
                "backdoor_success": backdoor_success_rate(
                    model,
                    dataset.test_images,
                    dataset.test_labels,
                    params["poison_target"],
                    params["trigger_size"],
                ),
            }
        )
    # Built after the runs so the transport name reflects what actually ran.
    payload = _base_payload(scenario, transport)
    payload["num_compromised"] = params["num_compromised"]
    payload["sweep"] = sweep
    return payload


def _device_key(client_id: str) -> bytes:
    """Deterministic per-device hardware key (simulation stand-in)."""
    return hashlib.sha256(f"device:{client_id}:{get_global_seed()}".encode("utf-8")).digest()


def run_shielded_global_task(scenario: Scenario, cache: ArtifactCache, transport) -> dict:
    config = scenario.config
    model_factory, clients, dataset = _build_population(scenario, cache, with_enclaves=True)
    model = model_factory()
    runtime = FederationRuntime(
        global_model=model,
        clients=clients,
        transport=transport,
        client_fraction=scenario.params["client_fraction"],
    )
    runtime.attest_clients({client.client_id: _device_key(client.client_id) for client in clients})
    result = runtime.run(scenario.params["num_rounds"], dataset.test_images, dataset.test_labels)
    # Evasion robustness of the trained global model, clear vs shielded.
    attack_params = table2_parameters(config.dataset)
    epsilon = attack_params.epsilon * config.epsilon_scale
    rng_seed = derive_seed(f"fl.scenario.{scenario.name}.attack")
    attack = build_curve_attack(
        scenario.params["attack"],
        epsilon,
        config.max_attack_steps,
        rng=lambda _label: np.random.default_rng(rng_seed),
    )
    images, labels = select_correctly_classified(
        model.predict, dataset.test_images, dataset.test_labels, config.eval_samples
    )
    if len(labels):
        clear_adv = attack.run(make_attacker_view(model), images, labels).adversarials
        shielded_view = make_attacker_view(
            ShieldedModel(model),
            strategy=config.upsampling_strategy,
            rng=np.random.default_rng(derive_seed(f"fl.scenario.{scenario.name}.bpda")),
        )
        shielded_adv = attack.run(shielded_view, images, labels).adversarials
        robust = {
            "unshielded": robust_accuracy(model.predict, clear_adv, labels),
            "shielded": robust_accuracy(model.predict, shielded_adv, labels),
        }
    else:  # the tiny global model classified nothing correctly
        robust = {"unshielded": float("nan"), "shielded": float("nan")}
    payload = _base_payload(scenario, transport, runtime)
    payload.update(
        rounds=_round_payload(result.rounds),
        final_accuracy=result.final_accuracy,
        attack=scenario.params["attack"],
        epsilon=float(epsilon),
        eval_samples=int(len(labels)),
        robust_accuracy=robust,
    )
    return payload


#: Task runner of each ``FederatedParams.task`` name.
TASKS = {
    "fedavg": run_fedavg_task,
    "thousand_clients": run_thousand_clients_task,
    "robust_aggregation": run_robust_aggregation_task,
    "poisoning": run_poisoning_task,
    "shielded_global": run_shielded_global_task,
}


def run_federated_scenario(
    scenario: Scenario, cache: ArtifactCache, executor: CellExecutor
) -> dict:
    """Dispatch a federated scenario to its task runner.

    The transport runs on the executor's resolved backend and worker count.
    """
    transport = Transport(executor.config.backend, executor.config.max_workers)
    task = scenario.params["task"]
    _LOGGER.info("federated task %s over %s transport", task, transport.name)
    return TASKS[task](scenario, cache, transport)
