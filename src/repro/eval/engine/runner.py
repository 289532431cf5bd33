"""The experiment engine: runs declarative scenarios end to end.

``ExperimentEngine.run`` resolves a scenario (by name or instance), prepares
its artifacts through the :class:`~repro.eval.engine.cache.ArtifactCache`
(datasets and trained defenders are reused across scenarios — Table IV and
Fig. 4 never retrain what Table III already trained), fans the independent
cells out through the :class:`~repro.eval.engine.executor.CellExecutor`, and
returns a :class:`~repro.eval.engine.results.RunRecord` that is optionally
persisted as JSON under ``<results_dir>/runs/``.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.attacks.configs import build_attack_suite
from repro.eval.engine import cells
from repro.eval.engine.cache import ArtifactCache
from repro.eval.engine.executor import CellExecutor, ExecutorConfig
from repro.eval.engine.registry import Scenario, build_scenario
from repro.eval.engine.results import RunRecord, save_run, timestamp
from repro.eval.geometry import run_geometry_study
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed, get_global_seed

_LOGGER = get_logger("eval.engine.runner")


class ExperimentEngine:
    """Facade over the scenario registry, artifact cache and cell executor."""

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        executor: CellExecutor | ExecutorConfig | None = None,
        results_dir: str | Path | None = None,
    ):
        self.results_dir = Path(results_dir) if results_dir is not None else None
        if cache is None:
            cache_dir = self.results_dir / "cache" if self.results_dir is not None else None
            cache = ArtifactCache(directory=cache_dir)
        self.cache = cache
        if isinstance(executor, ExecutorConfig):
            executor = CellExecutor(executor)
        self.executor = executor if executor is not None else CellExecutor()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        scenario: str | Scenario,
        scale: str = "bench",
        persist: bool | None = None,
        **overrides,
    ) -> RunRecord:
        """Execute one scenario and return its (optionally persisted) record."""
        if isinstance(scenario, str):
            scenario = build_scenario(scenario, scale=scale, **overrides)
        elif overrides:
            raise ValueError("overrides are only supported when resolving by name")
        runner = {
            "individual": self._run_individual,
            "ensemble": self._run_ensemble,
            "saga_samples": self._run_saga_samples,
            "geometry": self._run_geometry,
            "upsampling": self._run_upsampling,
            "federated": self._run_federated,
            "budget_curve": self._run_budget_curve,
            "robustness_curve": self._run_robustness_curve,
            "serving_throughput": self._run_serving_throughput,
            "serving_latency": self._run_serving_latency,
            "serving_tail_latency": self._run_serving_tail_latency,
            "serving_soak": self._run_serving_soak,
        }[scenario.kind]
        _LOGGER.info("running scenario %s (%s)", scenario.name, scenario.kind)
        start = time.perf_counter()
        results = runner(scenario)
        record = RunRecord(
            scenario=scenario.name,
            kind=scenario.kind,
            scale=scale,
            seed=get_global_seed(),
            config=asdict(scenario.config),
            params=dict(scenario.params),
            results=results,
            duration_seconds=time.perf_counter() - start,
            cache_stats=self.cache.stats.as_dict(),
            executor=asdict(self.executor.config),
            created_at=timestamp(),
        )
        if persist or (persist is None and self.results_dir is not None):
            if self.results_dir is None:
                raise ValueError("persist=True requires a results_dir")
            path = save_run(record, self.results_dir)
            _LOGGER.info("persisted %s results to %s", scenario.name, path)
        return record

    # ------------------------------------------------------------------ #
    # Shared preparation helpers
    # ------------------------------------------------------------------ #
    def _cell_seed(self, scenario: Scenario, *parts) -> int:
        return derive_seed("engine." + ".".join([scenario.name, *map(str, parts)]))

    @staticmethod
    def _attack_execution(config) -> dict:
        """Driver-facing payload fields shared by every attack cell."""
        return {
            "backend": config.attack_backend,
            "active_set": config.attack_active_set,
        }

    def _eval_set(self, scenario: Scenario, predict_fn, max_samples: int):
        from repro.eval.astuteness import select_correctly_classified

        dataset = self.cache.get_dataset(scenario.config)
        return select_correctly_classified(
            predict_fn, dataset.test_images, dataset.test_labels, max_samples
        )

    # ------------------------------------------------------------------ #
    # Table III
    # ------------------------------------------------------------------ #
    def _run_individual(self, scenario: Scenario):
        from repro.eval.harness import IndividualModelResult

        config = scenario.config
        dataset = self.cache.get_dataset(config)
        suite_config = config.attack_suite_config()
        attack_names = [
            name for name in build_attack_suite(suite_config) if name in config.attacks
        ]
        results: dict[str, IndividualModelResult] = {}
        payloads = []
        for model_name in config.models:
            model = self.cache.get_defender(model_name, config)
            images, labels = self._eval_set(scenario, model.predict, config.eval_samples)
            results[model_name] = IndividualModelResult(
                model_name=model_name,
                dataset=config.dataset,
                clean_accuracy=model.accuracy(dataset.test_images, dataset.test_labels),
                eval_samples=len(labels),
            )
            spec = cells.model_spec(model_name, model)
            for attack in attack_names:
                payloads.append(
                    {
                        "seed": self._cell_seed(scenario, model_name, attack),
                        "model": spec,
                        "attack": attack,
                        "suite_config": asdict(suite_config),
                        "images": images,
                        "labels": labels,
                        "batch_size": config.attack_batch_size,
                        "strategy": config.upsampling_strategy,
                        **self._attack_execution(config),
                    }
                )
        for cell in self.executor.map(cells.run_individual_cell, payloads):
            results[cell["model_name"]].robust[cell["attack"]] = {
                "unshielded": cell["unshielded"],
                "shielded": cell["shielded"],
            }
            _LOGGER.info(
                "%s / %s: unshielded=%.3f shielded=%.3f",
                cell["model_name"],
                cell["attack"],
                cell["unshielded"],
                cell["shielded"],
            )
        # Restore the declared attack order (cells may return in any order).
        for result in results.values():
            result.robust = {name: result.robust[name] for name in attack_names}
        return [results[model_name] for model_name in config.models]

    # ------------------------------------------------------------------ #
    # Table IV
    # ------------------------------------------------------------------ #
    def _ensemble_members(self, scenario: Scenario):
        config = scenario.config
        vit_model = self.cache.get_defender(config.ensemble_vit, config)
        cnn_model = self.cache.get_defender(config.ensemble_cnn, config)
        return vit_model, cnn_model

    def _both_correct_eval_set(self, scenario: Scenario, vit_model, cnn_model, max_samples: int):
        def both_correct(batch: np.ndarray) -> np.ndarray:
            vit_ok = vit_model.predict(batch)
            cnn_ok = cnn_model.predict(batch)
            return np.where(vit_ok == cnn_ok, vit_ok, -1)

        return self._eval_set(scenario, both_correct, max_samples)

    def _saga_payload(self, scenario: Scenario, specs, setting, images, labels) -> dict:
        config = scenario.config
        return {
            "seed": self._cell_seed(scenario, setting),
            "vit": specs[0],
            "cnn": specs[1],
            "setting": setting,
            "suite_config": asdict(config.attack_suite_config()),
            "saga_steps": config.saga_steps,
            "saga_alpha_cnn": config.saga_alpha_cnn,
            "images": images,
            "labels": labels,
            "batch_size": config.attack_batch_size,
            "strategy": config.upsampling_strategy,
            **self._attack_execution(config),
        }

    def _run_ensemble(self, scenario: Scenario):
        from repro.eval.harness import SHIELD_SETTINGS, EnsembleBenchmarkResult

        config = scenario.config
        dataset = self.cache.get_dataset(config)
        vit_model, cnn_model = self._ensemble_members(scenario)
        result = EnsembleBenchmarkResult(
            dataset=config.dataset, vit_name=config.ensemble_vit, cnn_name=config.ensemble_cnn
        )
        vit_clean = vit_model.accuracy(dataset.test_images, dataset.test_labels)
        cnn_clean = cnn_model.accuracy(dataset.test_images, dataset.test_labels)
        result.clean_accuracy = {
            "vit": vit_clean,
            "cnn": cnn_clean,
            # Expected accuracy under uniform random member selection.
            "ensemble": (vit_clean + cnn_clean) / 2.0,
        }
        images, labels = self._both_correct_eval_set(
            scenario, vit_model, cnn_model, config.eval_samples
        )
        result.eval_samples = len(labels)
        specs = (
            cells.model_spec(config.ensemble_vit, vit_model),
            cells.model_spec(config.ensemble_cnn, cnn_model),
        )
        noise_payload = self._saga_payload(scenario, specs, "random", images, labels)
        result.random_astuteness = cells.run_noise_cell(noise_payload)["robust"]
        payloads = [
            self._saga_payload(scenario, specs, setting, images, labels)
            for setting in SHIELD_SETTINGS
        ]
        for cell in self.executor.map(cells.run_saga_cell, payloads):
            result.robust[cell["setting"]] = cell["robust"]
            _LOGGER.info(
                "SAGA setting=%s vit=%.3f cnn=%.3f ensemble=%.3f",
                cell["setting"],
                cell["robust"]["vit"],
                cell["robust"]["cnn"],
                cell["robust"]["ensemble"],
            )
        result.robust = {setting: result.robust[setting] for setting in SHIELD_SETTINGS}
        return result

    # ------------------------------------------------------------------ #
    # Fig. 4
    # ------------------------------------------------------------------ #
    def _run_saga_samples(self, scenario: Scenario):
        from repro.eval.harness import SHIELD_SETTINGS, SagaSampleStudy

        config = scenario.config
        sample_index = int(scenario.params.get("sample_index", 0))
        vit_model, cnn_model = self._ensemble_members(scenario)
        images, labels = self._both_correct_eval_set(
            scenario, vit_model, cnn_model, sample_index + 1
        )
        if len(labels) <= sample_index:
            raise ValueError("not enough correctly classified samples for the study")
        image = images[sample_index : sample_index + 1]
        label = labels[sample_index : sample_index + 1]
        specs = (
            cells.model_spec(config.ensemble_vit, vit_model),
            cells.model_spec(config.ensemble_cnn, cnn_model),
        )
        study = SagaSampleStudy(dataset=config.dataset, label=int(label[0]))
        payloads = [
            self._saga_payload(scenario, specs, setting, image, label)
            for setting in SHIELD_SETTINGS
        ]
        for cell in self.executor.map(cells.run_saga_sample_cell, payloads):
            study.settings[cell["setting"]] = cell["outcome"]
        study.settings = {setting: study.settings[setting] for setting in SHIELD_SETTINGS}
        return study

    # ------------------------------------------------------------------ #
    # Fig. 3
    # ------------------------------------------------------------------ #
    def _run_geometry(self, scenario: Scenario):
        params = scenario.params
        return run_geometry_study(
            epsilon=float(params.get("epsilon", 0.5)),
            step_size=float(params.get("step_size", 0.08)),
            steps=int(params.get("steps", 12)),
        )

    # ------------------------------------------------------------------ #
    # Ablations
    # ------------------------------------------------------------------ #
    def _single_model_eval(self, scenario: Scenario):
        config = scenario.config
        model_name = scenario.params["model"]
        model = self.cache.get_defender(model_name, config)
        images, labels = self._eval_set(scenario, model.predict, config.eval_samples)
        return model_name, cells.model_spec(model_name, model), images, labels

    # ------------------------------------------------------------------ #
    # Attack-engine scenarios
    # ------------------------------------------------------------------ #
    def _run_budget_curve(self, scenario: Scenario):
        config = scenario.config
        model_name, spec, images, labels = self._single_model_eval(scenario)
        attack = scenario.params.get("attack", "pgd")
        payloads = [
            {
                "seed": self._cell_seed(scenario, model_name, setting, mode),
                "model": spec,
                "attack": attack,
                "suite_config": asdict(config.attack_suite_config()),
                "setting": setting,
                "mode": mode,
                "strategy": config.upsampling_strategy,
                "backend": config.attack_backend,
                "images": images,
                "labels": labels,
            }
            for setting in scenario.params.get("settings", ("clear",))
            for mode in ("fixed", "active")
        ]
        results: dict[str, dict] = {}
        for cell in self.executor.map(cells.run_budget_curve_cell, payloads):
            results.setdefault(cell["setting"], {})[cell["mode"]] = {
                key: cell[key]
                for key in ("curve", "gradient_calls", "sample_queries", "success_rate")
            }
            _LOGGER.info(
                "budget curve %s/%s: %d sample queries, success=%.3f",
                cell["setting"],
                cell["mode"],
                cell["sample_queries"],
                cell["success_rate"],
            )
        for setting, modes in results.items():
            fixed = modes.get("fixed", {}).get("sample_queries", 0)
            active = modes.get("active", {}).get("sample_queries", 0)
            modes["query_reduction"] = 1.0 - active / fixed if fixed else 0.0
        return {"attack": attack, "settings": results}

    def _run_robustness_curve(self, scenario: Scenario):
        config = scenario.config
        model_name, spec, images, labels = self._single_model_eval(scenario)
        attack = scenario.params.get("attack", "pgd")
        payloads = [
            {
                "seed": self._cell_seed(scenario, model_name, attack, epsilon),
                "model": spec,
                "attack": attack,
                "epsilon": float(epsilon),
                "steps": config.max_attack_steps,
                "strategy": config.upsampling_strategy,
                "images": images,
                "labels": labels,
                **self._attack_execution(config),
            }
            for epsilon in scenario.params["epsilons"]
        ]
        rows = self.executor.map(cells.run_robustness_curve_cell, payloads)
        return sorted(rows, key=lambda row: row["epsilon"])

    # ------------------------------------------------------------------ #
    # Serving-runtime scenarios
    # ------------------------------------------------------------------ #
    def _serving_setup(self, scenario: Scenario):
        """Trained defender plus the request-payload array for the workload."""
        params = scenario.params
        model = self.cache.get_defender(params["model"], scenario.config)
        dataset = self.cache.get_dataset(scenario.config)
        requests = int(params["requests"])
        images = dataset.test_images
        repeats = -(-requests // len(images))  # ceil division
        inputs = np.concatenate([images] * repeats, axis=0)[:requests]
        return model, inputs

    @staticmethod
    def _serve_workload(
        model, scenario: Scenario, inputs, max_batch: int, capture: str, sealed: int | None = None
    ):
        """One serving run: fresh service, capture warm-up, measured serve."""
        # Deferred import: repro.serve pulls the fl runtime (and through it
        # this package) back in — same cycle guard as _run_federated.
        from repro.serve import BatchingPolicy, ShieldedInferenceService, uniform_workload

        params = scenario.params
        policy = BatchingPolicy(
            max_batch=max_batch, max_wait_us=float(params["max_wait_us"])
        )
        inter_arrival = float(params["inter_arrival_us"])
        service = ShieldedInferenceService(model, policy, capture=capture)
        # Warm-up outside the measured region: the replica must see each
        # batch shape twice (the capture backend records lazily on the
        # second sighting), so cover two full batches.
        warm_count = 2 * policy.max_batch
        repeats = -(-warm_count // len(inputs))
        warm = np.concatenate([inputs] * repeats, axis=0)[:warm_count]
        service.serve(uniform_workload(warm, inter_arrival))
        report = service.serve(uniform_workload(inputs, inter_arrival))
        sealed = int(params.get("sealed", 0)) if sealed is None else int(sealed)
        sealed_ok = True
        if sealed and service.sessions is not None:
            session = service.open_session("serving.client", seed=0)
            for index in range(sealed):
                payload = inputs[index % len(inputs)]
                service.submit_sealed(index, session.seal_query(payload))
            sealed_report = service.serve()
            for reply in sealed_report.replies:
                opened = session.open_reply(service.seal_reply(reply))
                sealed_ok = sealed_ok and bool(np.array_equal(opened, reply.logits))
        return report, {"requests": sealed, "roundtrip_ok": sealed_ok}

    def _run_serving_throughput(self, scenario: Scenario):
        params = scenario.params
        model, inputs = self._serving_setup(scenario)
        max_batch = int(params["max_batch"])
        capture = str(params["capture"])
        batched, sealed = self._serve_workload(model, scenario, inputs, max_batch, capture)
        # The baseline is the pre-serving path: one eager forward per query,
        # no batching, no capture.  The captured single-request run isolates
        # how much of the speedup batching adds on top of replay alone.
        # Only the headline run exercises the sealed-session round trip.
        single, _ = self._serve_workload(model, scenario, inputs, 1, "eager", sealed=0)
        single_captured, _ = self._serve_workload(model, scenario, inputs, 1, capture, sealed=0)
        eager, _ = self._serve_workload(model, scenario, inputs, max_batch, "eager", sealed=0)
        speedup = batched.stats.throughput_rps / max(single.stats.throughput_rps, 1e-9)
        _LOGGER.info(
            "serving throughput: batched %.1f rps vs single-request %.1f rps (%.2fx)",
            batched.stats.throughput_rps,
            single.stats.throughput_rps,
            speedup,
        )
        return {
            "model": params["model"],
            "partition": batched.partition,
            "batched": batched.stats.as_dict(),
            "single": single.stats.as_dict(),
            "single_captured": single_captured.stats.as_dict(),
            "batched_eager": eager.stats.as_dict(),
            "speedup": speedup,
            "batching_only_speedup": batched.stats.throughput_rps
            / max(single_captured.stats.throughput_rps, 1e-9),
            "parity": {
                "batched_vs_single": bool(
                    np.array_equal(batched.predictions(), single.predictions())
                ),
                "captured_vs_eager": bool(np.array_equal(batched.logits(), eager.logits())),
            },
            "world_switches_per_request": {
                "batched": batched.stats.world_switches_per_request,
                "single": single.stats.world_switches_per_request,
            },
            "sealed": sealed,
        }

    def _run_serving_latency(self, scenario: Scenario):
        from dataclasses import replace as dc_replace

        params = scenario.params
        model, inputs = self._serving_setup(scenario)
        target_us = float(params["target_us"])
        rows = []
        for wait in params["waits"]:
            sweep = dc_replace(
                scenario, params={**dict(params), "max_wait_us": float(wait), "sealed": 0}
            )
            report, _ = self._serve_workload(
                model, sweep, inputs, int(params["max_batch"]), str(params["capture"])
            )
            latencies = report.latencies_us()
            rows.append(
                {
                    "max_wait_us": float(wait),
                    "throughput_rps": report.stats.throughput_rps,
                    "mean_batch_size": report.stats.mean_batch_size,
                    "latency_us_p50": report.stats.latency_us_p50,
                    "latency_us_p95": report.stats.latency_us_p95,
                    "latency_us_p99": report.stats.latency_us_p99,
                    "slo_attainment": float((latencies <= target_us).mean()),
                    "world_switches_per_request": report.stats.world_switches_per_request,
                }
            )
        return {"model": params["model"], "target_us": target_us, "sweep": rows}

    # ------------------------------------------------------------------ #
    # Serving-gateway scenarios (virtual-clock simulation)
    # ------------------------------------------------------------------ #
    def _gateway_costs(self, scenario: Scenario):
        """FLOP-calibrated stage cost model of the scenario's defender.

        Only the calibration touches the model (two profiled staged
        forwards); the load itself runs on the virtual clock, which is what
        lets the full-scale scenarios push 10^5+ requests per load point.
        """
        import copy

        from repro.core.shielded_model import ShieldedModel
        from repro.serve.gateway import calibrate_stage_costs

        params = scenario.params
        model = self.cache.get_defender(params["model"], scenario.config)
        dataset = self.cache.get_dataset(scenario.config)
        shielded = ShieldedModel(copy.deepcopy(model))
        return calibrate_stage_costs(
            shielded.partition,
            dataset.test_images[:1],
            gflops=float(params["gflops"]),
        )

    def _gateway_policy(self, scenario: Scenario, policy: str, slo_us: float):
        from repro.serve.gateway import AdmissionPolicy, AutoscalerPolicy, GatewayPolicy

        params = scenario.params
        autoscaler = None
        if params.get("autoscale"):
            autoscaler = AutoscalerPolicy(
                min_replicas=int(params["replicas"]),
                max_replicas=int(params["max_replicas"]),
            )
        return GatewayPolicy(
            policy=policy,
            max_batch=int(params["max_batch"]),
            max_wait_us=float(params["max_wait_us"]),
            replicas=int(params["replicas"]),
            slo_us=slo_us,
            admission=AdmissionPolicy(
                max_queue_depth=int(params["max_queue_depth"]),
                max_per_session=int(params["max_per_session"]),
            ),
            autoscaler=autoscaler,
        )

    def _gateway_slo_us(self, scenario: Scenario, costs) -> float:
        """Absolute SLO target, defaulting to a multiple of one full forward."""
        params = scenario.params
        if params.get("slo_us"):
            return float(params["slo_us"])
        return float(params["slo_forward_multiple"]) * costs.forward_us(
            int(params["max_batch"])
        )

    def _run_serving_tail_latency(self, scenario: Scenario):
        from repro.serve.gateway import ServingGateway, poisson_workload

        params = scenario.params
        costs = self._gateway_costs(scenario)
        slo_us = self._gateway_slo_us(scenario, costs)
        capacity = costs.capacity_rps(int(params["replicas"]), int(params["max_batch"]))
        policies = tuple(params["policies"])
        rows = []
        for load in params["loads"]:
            workload = poisson_workload(
                rate_rps=float(load) * capacity,
                requests=int(params["requests"]),
                num_sessions=int(params["num_sessions"]),
                seed_name=f"gateway.{scenario.name}.load{load:g}",
            )
            row = {"load": float(load), "offered_rps": workload.offered_rps}
            for policy in policies:
                gateway = ServingGateway(costs, self._gateway_policy(scenario, policy, slo_us))
                report = gateway.simulate(
                    workload, attested_fraction=float(params["attested_fraction"])
                )
                metrics = report.metrics
                row[policy] = {
                    "p50_us": metrics["latency"]["p50_us"],
                    "p99_us": metrics["latency"]["p99_us"],
                    "p999_us": metrics["latency"]["p999_us"],
                    "mean_us": metrics["latency"]["mean_us"],
                    "goodput_rps": metrics["goodput_rps"],
                    "throughput_rps": metrics["throughput_rps"],
                    "slo_attainment": metrics["slo_attainment"],
                    "shed_rate": metrics["shed_rate"],
                    "shed": metrics["shed"],
                    "mean_batch_size": metrics["mean_batch_size"],
                    "continuous_joins": metrics["continuous_joins"],
                    "latency_digest": metrics["latency_digest"],
                }
                _LOGGER.info(
                    "tail latency load=%.2f policy=%s p99=%.0fus slo=%.1f%%",
                    load,
                    policy,
                    row[policy]["p99_us"],
                    row[policy]["slo_attainment"] * 100,
                )
            rows.append(row)
        gate = self._tail_latency_gate(params, rows, policies)
        return {
            "model": params["model"],
            "capacity_rps": capacity,
            "slo_us": slo_us,
            "num_sessions": int(params["num_sessions"]),
            "requests_per_load": int(params["requests"]),
            "policies": list(policies),
            "stages": costs.describe(),
            "sweep": rows,
            "gate": gate,
        }

    @staticmethod
    def _tail_latency_gate(params, rows, policies) -> dict:
        """The scenario's SLO gate: pass/fail, not just reported numbers.

        * at the gate load, continuous batching must hold the SLO for at
          least ``gate_attainment`` of completed requests;
        * at the highest swept load, continuous p99 must not exceed the
          static wave drainer's p99 (the whole point of the gateway).
        """
        gate_load = float(params["gate_load"])
        gate_row = min(rows, key=lambda row: abs(row["load"] - gate_load))
        attainment = gate_row.get("continuous", {}).get("slo_attainment", 0.0)
        attainment_ok = attainment >= float(params["gate_attainment"])
        p99_ok = True
        if "continuous" in policies and "static" in policies:
            top = max(rows, key=lambda row: row["load"])
            p99_ok = top["continuous"]["p99_us"] <= top["static"]["p99_us"]
        return {
            "load": gate_row["load"],
            "min_attainment": float(params["gate_attainment"]),
            "attainment": attainment,
            "attainment_ok": bool(attainment_ok),
            "continuous_p99_beats_static": bool(p99_ok),
            "passed": bool(attainment_ok and p99_ok),
        }

    def _run_serving_soak(self, scenario: Scenario):
        from repro.serve.gateway import ServingGateway, poisson_workload, trace_workload

        params = scenario.params
        costs = self._gateway_costs(scenario)
        slo_us = self._gateway_slo_us(scenario, costs)
        capacity = costs.capacity_rps(int(params["replicas"]), int(params["max_batch"]))
        if params.get("trace"):
            workload = trace_workload(
                params["trace"],
                num_sessions=int(params["num_sessions"]),
                seed_name=f"gateway.{scenario.name}.trace",
            )
        else:
            workload = poisson_workload(
                rate_rps=float(params["load"]) * capacity,
                requests=int(params["requests"]),
                num_sessions=int(params["num_sessions"]),
                seed_name=f"gateway.{scenario.name}.soak",
            )
        policy = str(tuple(params["policies"])[0])
        gateway = ServingGateway(costs, self._gateway_policy(scenario, policy, slo_us))
        report = gateway.simulate(
            workload, attested_fraction=float(params["attested_fraction"])
        )
        metrics = report.metrics
        shed_total = sum(metrics["shed"].values())
        invariants = {
            "offered_equals_admitted_plus_shed": bool(
                metrics["offered"] == metrics["admitted"] + shed_total
            ),
            "all_admitted_completed": bool(metrics["completed"] == metrics["admitted"]),
        }
        _LOGGER.info(
            "soak: %d offered, %d completed, shed=%s, %d scale events, invariants=%s",
            metrics["offered"],
            metrics["completed"],
            metrics["shed"],
            len(metrics["scale_events"]),
            invariants,
        )
        return {
            "model": params["model"],
            "policy": policy,
            "load": float(params["load"]),
            "capacity_rps": capacity,
            "slo_us": slo_us,
            "num_sessions": int(params["num_sessions"]),
            "replicas_final": report.replicas_final,
            "metrics": metrics,
            "invariants": invariants,
        }

    # ------------------------------------------------------------------ #
    # Federated (fl_*) scenarios
    # ------------------------------------------------------------------ #
    def _run_federated(self, scenario: Scenario):
        # Deferred import: repro.fl pulls the executor module back in, so a
        # top-level import would create a package-initialisation cycle.
        from repro.eval.engine.federated import run_federated_scenario

        return run_federated_scenario(scenario, self.cache, self.executor)

    def _run_upsampling(self, scenario: Scenario):
        config = scenario.config
        model_name, spec, images, labels = self._single_model_eval(scenario)
        strategies = ("white_box", "random_noise", *scenario.params["strategies"])
        payloads = [
            {
                "seed": self._cell_seed(scenario, model_name, strategy),
                "model": spec,
                "strategy": strategy,
                "epsilon": 0.031 * config.epsilon_scale,
                "steps": config.max_attack_steps,
                "images": images,
                "labels": labels,
                **self._attack_execution(config),
            }
            for strategy in strategies
        ]
        cells_out = self.executor.map(cells.run_upsampling_cell, payloads)
        return {cell["strategy"]: cell["robust_accuracy"] for cell in cells_out}
