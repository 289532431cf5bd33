"""One benchmark workload, run in its own process (the child side of ``run.py``).

``run.py`` starts this module once per workload, with every ``REPRO_*``
variable removed from the environment so the program runs at its defaults::

    python -m benchmarks.e2e.workloads --workload NAME --seed N --seconds S --trace 0|1

The child sets up the workload (imports, data, defender training, sessions),
runs the timed calls through the program's public entry points
(``ExperimentEngine.run`` and ``GatewayService``), checks every output, and
prints one JSON line with its raw metrics.  With ``--trace 1`` it instead
traces the set-up, runs one fixed unit of work untraced, traced and untraced
again, prints the layer tree, writes the spans to ``--spans`` and reports the
per-layer metrics.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.shielded_model import ShieldedModel  # noqa: E402
from repro.eval.engine import (  # noqa: E402
    ExperimentEngine,
    build_scenario,
    scaled_experiment_config,
)
from repro.serve.batching import InferenceRequest  # noqa: E402
from repro.serve.gateway import GatewayPolicy, GatewayService  # noqa: E402
from repro.utils.rng import set_global_seed  # noqa: E402

IMPORTED = time.monotonic()

#: Clear-setting attacks that must fool most of an unshielded defender's samples.
STRONG_ATTACKS = ("pgd", "apgd", "mim")
#: Highest clear robust accuracy a strong attack may leave.  A broken attack
#: leaves nearly all samples standing; a working 5-step MIM can leave a
#: quarter of BiT's 12 (seed 5008), so the ceiling sits between the two.
STRONG_ATTACK_CEILING = 0.5
#: Serving clients of the concurrent (throughput) phase, one session each.
SERVE_CLIENTS = 16
#: Distinct request payloads per serving run; replies are checked against
#: single-request eager logits of each.
SERVE_POOL = 64
#: Logit agreement a gateway reply must keep with the eager reference.
SERVE_RTOL = 1e-6
#: Length of one c1 or c16 slice of a timed serving run.
SLICE_S = 0.5


@dataclass
class Measurement:
    """What one measured stretch of a workload produced."""

    #: Per-operation latencies (seconds) behind ``latency_ms``.
    latencies_s: list[float] = field(default_factory=list)
    #: Work units completed, and the wall-clock they took: ``throughput``.
    units: int = 0
    unit_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: First-seen output of every distinct operation (hashed, not gated).
    outputs: dict = field(default_factory=dict)
    wall_s: float = 0.0
    #: Served rounds awaiting verification, per phase (serving workloads).
    pending: dict = field(default_factory=dict)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(reason)


# --------------------------------------------------------------------------- #
# Experiment-engine workloads: Table III cells and federated rounds
# --------------------------------------------------------------------------- #
@dataclass
class EngineState:
    engine: ExperimentEngine
    scale: str
    overrides: dict


class EngineWorkload:
    """Timed calls of ``ExperimentEngine.run`` on one scenario."""

    def __init__(self, scenario: str, overrides: dict, smoke: dict, defenders=(),
                 setup_repeats: int = 3):
        self.scenario = scenario
        self.overrides = overrides
        self.smoke = smoke
        self.defenders = defenders
        #: Set-ups per run; training a Table III defender takes 5-13 s, so
        #: those workloads set up once.
        self.setup_repeats = setup_repeats

    def setup(self, smoke: bool) -> EngineState:
        scale = "tiny" if smoke else "bench"
        overrides = self.smoke if smoke else self.overrides
        engine = ExperimentEngine()
        config = build_scenario(self.scenario, scale=scale, **overrides).config
        engine.cache.get_dataset(config)
        for model in self.defenders:
            engine.cache.get_defender(model, config)
        return EngineState(engine, scale, overrides)

    def prepare(self, state: EngineState, seed: int) -> None:
        """Nothing to pre-compute: every call regenerates its own inputs."""

    def partitions(self, state: EngineState) -> list:
        return []

    def finish(self, state: EngineState, out: Measurement) -> None:
        """Outputs were checked call by call inside :meth:`measure`."""

    def measure(self, state: EngineState, budget_s: float | None) -> Measurement:
        """Call until the next call would overrun ``budget_s`` (one call when None)."""
        out = Measurement()
        started = time.perf_counter()
        while True:
            begin = time.perf_counter()
            try:
                record = state.engine.run(
                    self.scenario, scale=state.scale, persist=False, **state.overrides
                )
            except Exception as error:  # noqa: BLE001 - a failed call is a failed op
                latency = time.perf_counter() - begin
                units = self.units(state, None)
                out.attempted += units
                out.fail(units, f"{type(error).__name__}: {error}")
            else:
                latency = time.perf_counter() - begin
                units = self.check(state, record.results, out)
                out.units += units
                out.unit_seconds += latency
            out.latencies_s.append(latency)
            elapsed = time.perf_counter() - started
            if budget_s is None or elapsed + statistics.median(out.latencies_s) > budget_s:
                break
        out.wall_s = time.perf_counter() - started
        return out


class Table3Workload(EngineWorkload):
    """One Table III scenario call: 5 attacks × {clear, shielded} cells."""

    def __init__(self, model: str, eval_samples: int):
        super().__init__(
            "table3_cifar10",
            {"models": (model,), "eval_samples": eval_samples},
            {"models": (model,), "eval_samples": 4, "train_epochs": 1},
            defenders=(model,),
            setup_repeats=1,
        )

    def units(self, state, results) -> int:
        attacks = build_scenario(self.scenario, scale=state.scale, **state.overrides).config.attacks
        return 2 * len(attacks)

    def check(self, state: EngineState, results, out: Measurement) -> int:
        (result,) = results
        wanted = state.overrides["eval_samples"]
        short = result.eval_samples < wanted
        passed = 0
        for attack, cell in result.robust.items():
            clear, shielded = cell["unshielded"], cell["shielded"]
            out.attempted += 2
            if short:
                out.fail(2, f"{attack}: {result.eval_samples} of {wanted} samples attacked")
                continue
            if attack in STRONG_ATTACKS and clear > STRONG_ATTACK_CEILING:
                out.fail(1, f"{attack}/clear: robust accuracy {clear:.3f} "
                            f"> {STRONG_ATTACK_CEILING}")
            else:
                passed += 1
            if shielded < clear:
                out.fail(1, f"{attack}/shielded: robust accuracy {shielded:.3f} "
                            f"< clear {clear:.3f}")
            else:
                passed += 1
        out.outputs.setdefault(
            "robust", {attack: dict(cell) for attack, cell in result.robust.items()}
        )
        return passed


class FederatedWorkload(EngineWorkload):
    """One federated scenario call; its operations are client updates."""

    def __init__(self, scenario: str, overrides: dict, smoke: dict, sealed: bool):
        super().__init__(scenario, overrides, smoke)
        self.sealed = sealed

    def units(self, state, results) -> int:
        params = build_scenario(self.scenario, scale=state.scale, **state.overrides).params
        return int(params["num_clients"]) * int(params["num_rounds"])

    def check(self, state: EngineState, results: dict, out: Measurement) -> int:
        expected = self.units(state, results)
        rounds = results["rounds"]
        arrived = sum(len(entry["participating_clients"]) for entry in rounds)
        out.attempted += expected
        failed = expected - arrived
        if failed:
            out.fail(failed, f"{failed} of {expected} client updates never arrived")
        for entry in rounds:
            if not math.isfinite(entry["mean_client_loss"]):
                failed += len(entry["participating_clients"])
                out.fail(len(entry["participating_clients"]),
                         f"round {entry['round_index']}: non-finite client loss")
        if self.sealed:
            secure = results["secure"]
            clients = int(results["num_clients"])
            if secure["attested_clients"] != clients or secure["sealed_messages"] != 2 * arrived:
                out.fail(expected - failed, f"sealed traffic {secure} != 2 x {arrived} updates")
                failed = expected
        out.outputs.setdefault(
            "rounds",
            [[entry["global_accuracy"], entry["mean_client_loss"], entry["update_bytes"]]
             for entry in rounds],
        )
        return max(expected - failed, 0)


# --------------------------------------------------------------------------- #
# Serving workloads: the shielded gateway over attested sessions
# --------------------------------------------------------------------------- #
@dataclass
class ServeState:
    service: GatewayService
    sessions: list
    model: object
    test_images: np.ndarray
    pool: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    reference: np.ndarray | None = None
    smoke: bool = False
    request_ids: itertools.count = field(default_factory=itertools.count)
    cursor: int = 0


class ServeWorkload:
    """Closed-loop clients of a shielded ``GatewayService`` (ViT-B/32).

    Two phases share the run in alternating slices: one client (c1: batch-1
    path, ``latency_ms``) and ``SERVE_CLIENTS`` clients (c16: cohort
    batching, ``throughput``).  Each client sends its next request when its
    reply arrives; ``serve()`` is synchronous, so a c16 round is 16 requests
    submitted together and drained by one ``serve()`` call.
    """

    setup_repeats = 3
    #: (c1 requests, c16 rounds) of the fixed unit a traced run measures.
    TRACE_WORK = {True: (100, 8), False: (500, 40)}

    def __init__(self, sealed: bool):
        self.sealed = sealed

    def setup(self, smoke: bool) -> ServeState:
        engine = ExperimentEngine()
        if smoke:
            config = scaled_experiment_config("tiny", dataset="cifar10", train_epochs=1)
        else:
            config = scaled_experiment_config("bench", dataset="cifar10")
        dataset = engine.cache.get_dataset(config)
        model = engine.cache.get_defender("vit_b32", config)
        service = GatewayService(
            model, GatewayPolicy(policy="continuous", max_batch=8, replicas=1), shielded=True
        )
        sessions = [service.open_session(f"client{index}", seed=index)
                    for index in range(SERVE_CLIENTS)]
        # The first serve() calibrates the stage cost model: lazy set-up.
        for index in range(SERVE_CLIENTS):
            service.submit(InferenceRequest(-1 - index, dataset.test_images[index % 8],
                                            session_id=sessions[index].session_id))
        service.serve()
        return ServeState(service, sessions, model, dataset.test_images, smoke=smoke)

    def prepare(self, state: ServeState, seed: int) -> None:
        """Pick the payload pool, its eager references and (sealed) ciphertexts.

        Sealing is the clients' work, so it happens before the timed phases;
        the gateway authenticates a ciphertext on every use, so one sealed
        query per payload can be submitted repeatedly.
        """
        rng = np.random.default_rng(seed)
        size = min(SERVE_POOL, len(state.test_images))
        chosen = rng.choice(len(state.test_images), size, replace=False)
        state.pool = [state.test_images[index] for index in chosen]
        reference = ShieldedModel(copy.deepcopy(state.model))
        state.reference = np.stack([reference.logits(image[None])[0] for image in state.pool])
        if self.sealed:
            state.queries = [
                state.sessions[index % SERVE_CLIENTS].seal_query(image)
                for index, image in enumerate(state.pool)
            ]

    def partitions(self, state: ServeState) -> list:
        return [state.service.partition]

    def _round(self, state: ServeState, clients: int, pending: list) -> float:
        service = state.service
        batch = []
        for offset in range(clients):
            index = (state.cursor + offset) % len(state.pool)
            request_id = next(state.request_ids)
            batch.append((request_id, index))
        state.cursor += clients
        begin = time.perf_counter()
        for request_id, index in batch:
            if self.sealed:
                service.submit_sealed(request_id, state.queries[index])
            else:
                service.submit(InferenceRequest(
                    request_id, state.pool[index],
                    session_id=state.sessions[index % SERVE_CLIENTS].session_id))
        report = service.serve()
        sealed = [service.seal_reply(reply) for reply in report.replies] if self.sealed else None
        latency = time.perf_counter() - begin
        # GatewayService never flushes the shield regions its stage scopes
        # open, so every request's stem activations would stay referenced and
        # peak memory would grow with the requests a run fits in.  Flushing
        # after each round (untimed) keeps peak_rss_mb a steady-state figure.
        service.enclave.flush_regions()
        pending.append((batch, report.replies, sealed))
        return latency

    def _verify(self, state: ServeState, pending: list, out: Measurement) -> int:
        """Check every reply of a phase; returns the requests that passed."""
        passed = 0
        for batch, replies, sealed in pending:
            by_id = {reply.request_id: position for position, reply in enumerate(replies)}
            for request_id, index in batch:
                out.attempted += 1
                position = by_id.get(request_id)
                if position is None:
                    out.fail(1, f"request {request_id}: shed or no reply")
                    continue
                logits = replies[position].logits
                if sealed is not None:
                    session = state.sessions[index % SERVE_CLIENTS]
                    try:
                        opened = session.open_reply(sealed[position])
                    except Exception as error:  # noqa: BLE001 - counted as a failed request
                        out.fail(1, f"request {request_id}: sealed reply did not open ({error})")
                        continue
                    if not np.array_equal(opened, logits):
                        out.fail(1, f"request {request_id}: opened reply != served logits")
                        continue
                expected = state.reference[index]
                scale = max(float(np.abs(expected).max()), 1e-12)
                if (int(logits.argmax()) != int(expected.argmax())
                        or float(np.abs(logits - expected).max()) / scale > SERVE_RTOL):
                    out.fail(1, f"request {request_id}: logits disagree with eager reference")
                    continue
                out.outputs.setdefault(str(index), logits.tolist())
                passed += 1
        return passed

    def _phase(self, state: ServeState, clients: int, seconds: float | None,
               rounds: int | None, pending: list, latencies: list[float]) -> None:
        """Closed-loop rounds for ``seconds`` (or exactly ``rounds``)."""
        started = time.perf_counter()
        for done in itertools.count():
            if (done >= rounds) if rounds is not None else (
                time.perf_counter() - started >= seconds
            ):
                return
            latencies.append(self._round(state, clients, pending))

    def measure(self, state: ServeState, budget_s: float | None) -> Measurement:
        """Alternate c1 and c16 slices for ``budget_s`` (fixed counts when None).

        Alternating short slices means a host slowdown lasting a few seconds
        touches a little of both phases instead of most of one, which the
        medians then absorb.
        """
        out = Measurement()
        out.pending = {"c1": [], "c16": []}
        round_latencies: list[float] = []
        started = time.perf_counter()
        if budget_s is None:
            single, rounds = (8, 2) if state.smoke else self.TRACE_WORK[self.sealed]
            self._phase(state, 1, None, single, out.pending["c1"], out.latencies_s)
            self._phase(state, SERVE_CLIENTS, None, rounds, out.pending["c16"], round_latencies)
        else:
            while time.perf_counter() - started < budget_s:
                self._phase(state, 1, SLICE_S, None, out.pending["c1"], out.latencies_s)
                self._phase(state, SERVE_CLIENTS, SLICE_S, None, out.pending["c16"],
                            round_latencies)
        out.wall_s = time.perf_counter() - started
        # A c16 round completes all its requests at once, so the phase's rate
        # is clients per round time; the median round keeps rounds slowed by
        # the host from moving the figure.
        out.unit_seconds = len(round_latencies) * statistics.median(round_latencies)
        return out

    def finish(self, state: ServeState, out: Measurement) -> None:
        """Verify every reply; ``throughput`` counts the c16 requests that passed."""
        self._verify(state, out.pending.pop("c1"), out)
        out.units = self._verify(state, out.pending.pop("c16"), out)


WORKLOADS = {
    "table3_vit_l16": Table3Workload("vit_l16", eval_samples=12),
    "table3_bit_r101x3": Table3Workload("bit_m_r101x3", eval_samples=12),
    "fl_sealed_training": FederatedWorkload(
        "fl_shielded_global", {"num_rounds": 1}, {"num_rounds": 1}, sealed=True
    ),
    "fl_thousand_clients": FederatedWorkload(
        "fl_thousand_clients", {"num_rounds": 1}, {"num_rounds": 1}, sealed=False
    ),
    "serve_vit_b32_sealed": ServeWorkload(sealed=True),
    "serve_vit_b32_clear": ServeWorkload(sealed=False),
}


# --------------------------------------------------------------------------- #
# Child entry point
# --------------------------------------------------------------------------- #
def _environment(state) -> dict:
    """What the program ran on: interpreter, NumPy, BLAS, engine workers."""
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # older NumPy without the dict mode
        pass
    engine = state.engine if isinstance(state, EngineState) else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "engine_workers": engine.executor.resolve(5)[1] if engine is not None else 1,
    }


def _tail(latencies_s: list[float]) -> dict[str, float]:
    """Highest latency percentile with at least ten samples beyond it."""
    count = len(latencies_s)
    if count < 20:
        return {"serve.tail_ms": 0.0, "serve.tail_quantile": 0.0,
                "serve.latency_samples": float(count)}
    quantile = 1.0 - 10.0 / count
    return {
        "serve.tail_ms": float(np.quantile(latencies_s, quantile)) * 1e3,
        "serve.tail_quantile": quantile,
        "serve.latency_samples": float(count),
    }


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    spawned = args.spawned_at if args.spawned_at is not None else STARTED
    import_s = IMPORTED - spawned
    tracer = None
    if args.trace:
        from benchmarks.e2e.trace import Tracer

        tracer = Tracer()
    repeats = 1 if args.trace or args.smoke else workload.setup_repeats
    setups = []
    for _ in range(repeats):
        set_global_seed(args.seed)
        begin = time.perf_counter()
        if tracer is not None:
            with tracer.active():
                state = workload.setup(args.smoke)
        else:
            state = workload.setup(args.smoke)
        setups.append(time.perf_counter() - begin)
    workload.prepare(state, args.seed)
    environment = _environment(state)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": bool(args.smoke),
        "import_s": import_s,
        "setup_runs_s": setups,
        "environment": environment,
    }
    if tracer is None:
        out = workload.measure(state, args.seconds)
        workload.finish(state, out)
        measurements = [out]
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "latency_ms": statistics.median(out.latencies_s) * 1e3,
            "throughput": out.units / out.unit_seconds if out.unit_seconds else 0.0,
        }
    else:
        # Untraced, traced, untraced: the overhead compares the traced unit
        # with the mean of its two untraced neighbours, so a drift in host
        # speed during the run does not read as tracing cost.
        untraced = workload.measure(state, None)
        with tracer.active(workload.partitions(state)):
            traced = workload.measure(state, None)
        after = workload.measure(state, None)
        measurements = [untraced, traced, after]
        for out in measurements:
            workload.finish(state, out)
        print(tracer.format_tree(f"{args.workload}, seed {args.seed}"), flush=True)
        if args.spans:
            tracer.dump(Path(args.spans), workload=args.workload, seed=args.seed)
            result["spans"] = args.spans
        metrics = tracer.layer_metrics(environment["engine_workers"])
        metrics["trace.overhead"] = 2 * traced.wall_s / (untraced.wall_s + after.wall_s) - 1.0
        metrics.update(_tail(untraced.latencies_s + after.latencies_s)
                       if isinstance(workload, ServeWorkload) else _tail([]))
        result["ops"] = dict(list(tracer.op_rows().items())[:8])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = json.dumps([m.outputs for m in measurements], sort_keys=True, default=float)
    result.update(
        metrics=metrics,
        attempted=sum(m.attempted for m in measurements),
        failed=sum(m.failed for m in measurements),
        failures=[reason for m in measurements for reason in m.failures][:10],
        calls=sum(len(m.latencies_s) for m in measurements),
        latencies_s=[latency for m in measurements for latency in m.latencies_s][:2000],
        outputs_sha256=hashlib.sha256(outputs.encode()).hexdigest(),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent when it started this process")
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
