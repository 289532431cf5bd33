"""Serve a PELTA-shielded defender to untrusted clients through the gateway.

The deployment story of the paper: a TEE-shielded model answers inference
queries from clients that do not trust the hosting platform.  This example
walks the serving gateway end to end:

1. train a ViT defender through the artifact cache (re-runs train nothing);
2. stand up a :class:`~repro.serve.GatewayService` — the model's stem runs
   enclave-resident as a partition stage, and admitted requests are
   scheduled in cohorts that share one enclave entry/exit pair;
3. serve the same 96 queries three ways — continuous batching, static
   waves, and one request at a time — and compare wall-clock throughput and
   TEE world switches per request; each cohort runs as one batched stage
   call, so the batched policies' logits keep the gateway's parity contract
   against one-at-a-time serving (same predictions, logits within
   ``PARITY_ULPS`` ulps of the largest logit);
4. open an attestation-gated session and round-trip a sealed query: the
   client verifies the enclave quote before any ciphertext flows.

Run with:  python examples/shielded_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.eval.engine import ArtifactCache, ExperimentConfig
from repro.serve import AdmissionPolicy, GatewayPolicy, GatewayService, InferenceRequest
from repro.serve.gateway.gateway import PARITY_ULPS
from repro.utils import set_global_seed

INTER_ARRIVAL_US = 150.0


def _requests(inputs: np.ndarray, session_id: str) -> list[InferenceRequest]:
    return [
        InferenceRequest(
            request_id=index,
            payload=inputs[index],
            arrival_us=index * INTER_ARRIVAL_US,
            session_id=session_id,
        )
        for index in range(len(inputs))
    ]


def _serve(model, inputs: np.ndarray, label: str, **policy):
    """One fresh gateway: calibrate on a short warm-up, then serve ``inputs``."""
    admission = AdmissionPolicy(max_queue_depth=256, max_per_session=len(inputs))
    service = GatewayService(model, GatewayPolicy(admission=admission, **policy))
    service.open_session("client")
    service.serve(_requests(inputs[:8], "client"))  # calibrates the stage costs
    start = time.perf_counter()
    report = service.serve(_requests(inputs, "client"))
    seconds = time.perf_counter() - start
    metrics = report.metrics
    assert metrics["completed"] == len(inputs), metrics
    print(
        f"{label:<28} {len(inputs) / seconds:7.1f} req/s  "
        f"{metrics['batches']:3d} stem cohorts (mean size {metrics['mean_batch_size']:.1f}), "
        f"{metrics['world_switches'] / metrics['completed']:.2f} world switches/request"
    )
    return service, report


def main() -> None:
    set_global_seed(7)

    # 1. Trained defender via the artifact cache -----------------------------
    config = ExperimentConfig(
        dataset="cifar10",
        models=("vit_b32",),
        train_per_class=32,
        test_per_class=16,
        train_epochs=4,
        train_lr=3e-3,
    )
    cache = ArtifactCache(directory="results/cache")
    model = cache.get_defender("vit_b32", config)
    dataset = cache.get_dataset(config)
    inputs = dataset.test_images[:96]

    # 2-3. The same queries, three scheduling policies -----------------------
    service, continuous = _serve(
        model, inputs, "continuous (max_batch=8)", policy="continuous", max_batch=8
    )
    print("Stage partition:", continuous.stages)
    _, static = _serve(model, inputs, "static (max_batch=8)", policy="static", max_batch=8)
    _, single = _serve(
        model, inputs, "one at a time (max_batch=1)", policy="continuous", max_batch=1, replicas=1
    )
    # One request per cohort is the eager forward; the batched policies keep
    # the same predictions and stay within the contract's ulp bound of it.
    eager = single.logits()
    scale = np.finfo(eager.dtype).eps * np.abs(eager).max(axis=1)
    worst = 0.0
    for report in (continuous, static):
        assert np.array_equal(report.predictions(), single.predictions())
        ulps = np.abs(report.logits() - eager).max(axis=1) / scale
        assert np.all(ulps <= PARITY_ULPS), ulps.max()
        worst = max(worst, float(ulps.max()))
    print(
        f"Predictions identical across the three policies; batched logits within "
        f"{worst:.1f} ulps of one-at-a-time (contract: {PARITY_ULPS})"
    )

    # 4. Attestation-gated sealed queries ------------------------------------
    session = service.open_session("untrusting-client")
    print("\nSession attested: the client verified the serving enclave's quote.")
    service.submit_sealed(0, session.seal_query(inputs[0]))
    reply = service.serve().replies[0]
    logits = session.open_reply(service.seal_reply(reply))
    assert np.array_equal(logits, single.logits()[0])
    print(
        f"Sealed round trip ok: predicted class {reply.prediction} "
        f"(logits intact: {bool(np.array_equal(logits, reply.logits))})"
    )


if __name__ == "__main__":
    main()
