"""Serve a PELTA-shielded defender to untrusted clients at batch speed.

The deployment story of the paper: a TEE-shielded model answers inference
queries from clients that do not trust the hosting platform.  This example
walks the serving runtime end to end:

1. train a ViT defender through the artifact cache (re-runs train nothing);
2. stand up a :class:`~repro.serve.ShieldedInferenceService` — the model's
   stem runs enclave-resident as a partition stage, forwards replay through
   the captured-graph cache, and queries are dynamically micro-batched;
3. serve a constant-rate workload and compare against single-request
   serving — same predictions, several times the throughput, a fraction of
   the TEE world switches per request;
4. open an attestation-gated session and round-trip a sealed query: the
   client verifies the enclave quote before any ciphertext flows.

Run with:  python examples/shielded_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.eval.engine import ArtifactCache, ExperimentConfig
from repro.serve import BatchingPolicy, ShieldedInferenceService, uniform_workload
from repro.utils import set_global_seed


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

    # 2. The serving runtime -------------------------------------------------
    policy = BatchingPolicy(max_batch=8, max_wait_us=4000.0)
    workload = uniform_workload(inputs, inter_arrival_us=150.0)
    service = ShieldedInferenceService(model, policy)
    print("Stage partition:", service.replica.partition.describe())
    service.serve(uniform_workload(inputs[:16], 150.0))  # warm the capture cache
    batched = service.serve(workload)

    # 3. Single-request serving for comparison (no batching, eager forwards) -
    naive = ShieldedInferenceService(model, BatchingPolicy(max_batch=1), capture="eager")
    single = naive.serve(uniform_workload(inputs, inter_arrival_us=150.0))

    stats = batched.stats
    print(
        f"\nBatched:  {stats.throughput_rps:8.1f} req/s in {stats.batches} batches "
        f"(mean size {stats.mean_batch_size:.1f}), "
        f"{stats.world_switches_per_request:.2f} world switches/request, "
        f"p95 latency {stats.latency_us_p95 / 1000.0:.2f} ms"
    )
    print(
        f"Single:   {single.stats.throughput_rps:8.1f} req/s, "
        f"{single.stats.world_switches_per_request:.2f} world switches/request"
    )
    print(
        f"Speedup:  {stats.throughput_rps / single.stats.throughput_rps:.2f}x, "
        f"predictions identical: "
        f"{bool(np.array_equal(batched.predictions(), single.predictions()))}"
    )

    # 4. Attestation-gated sealed queries ------------------------------------
    service = ShieldedInferenceService(model, policy)
    session = service.open_session("untrusting-client")
    print("\nSession attested: the client verified the serving enclave's quote.")
    sealed_query = session.seal_query(inputs[0])
    service.submit_sealed(0, sealed_query)
    report = service.serve()
    reply = report.replies[0]
    logits = session.open_reply(service.seal_reply(reply))
    print(
        f"Sealed round trip ok: predicted class {reply.prediction} "
        f"(logits intact: {bool(np.array_equal(logits, reply.logits))})"
    )


if __name__ == "__main__":
    main()
