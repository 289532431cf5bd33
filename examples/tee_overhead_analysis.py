"""System implications of PELTA (§VI): enclave memory, world switches, bandwidth.

Quantifies the systems costs the paper discusses: per-inference secure-world
crossings, secure-channel encryption of the data moving across the boundary,
remote attestation of the enclave, and the enclave memory budget of shielding
each defender architecture.

Run with:  python examples/tee_overhead_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.core import ShieldedModel, format_bytes, measure_shielded_model, paper_table1
from repro.models import build_model
from repro.tee import establish_session, random_bytes, verify_quote
from repro.utils import set_global_seed, spawn_rng


def main() -> None:
    set_global_seed(23)
    rng = spawn_rng("example.tee")

    # ------------------------------------------------------------------ #
    # Enclave memory (Table I, paper-dimension estimates)
    # ------------------------------------------------------------------ #
    print("Enclave memory estimates for the paper's model dimensions:")
    for row in paper_table1():
        print(
            f"  {row['model']:<14} worst-case {format_bytes(row['worst_case_bytes']):>10}"
            f"  (paper reports {format_bytes(row['paper_tee_bytes'])})"
        )

    # ------------------------------------------------------------------ #
    # Per-inference world-switch cost on a bench-scale shielded ViT
    # ------------------------------------------------------------------ #
    model = build_model("vit_b16", num_classes=10, image_size=32)
    shielded = ShieldedModel(model)
    inputs = rng.uniform(size=(16, 3, 32, 32))
    for index in range(len(inputs)):
        shielded.predict(inputs[index : index + 1])
    stats = shielded.enclave.boundary.stats
    print(
        f"\n16 shielded inferences: {stats.switches} world switches, "
        f"{stats.bytes_in + stats.bytes_out:,} bytes across the boundary, "
        f"{stats.simulated_time_us / 16:.1f} simulated us per inference"
    )

    estimate = measure_shielded_model(shielded, inputs[:1], np.array([0]))
    print(
        f"measured enclave occupancy (1 forward/backward): "
        f"{format_bytes(estimate.worst_case_bytes)} of "
        f"{format_bytes(shielded.enclave.memory_limit_bytes)} TrustZone budget"
    )

    # ------------------------------------------------------------------ #
    # Secure channel + attestation for the FL server
    # ------------------------------------------------------------------ #
    client_channel, server_channel = establish_session(rng)
    stem_update = np.concatenate([p.data.reshape(-1) for p in shielded.stem_parameters()])
    message, shape, dtype = client_channel.encrypt_array(stem_update)
    recovered = server_channel.decrypt_array(message, shape, dtype)
    print(
        f"\nstem update of {stem_update.nbytes:,} bytes encrypted into "
        f"{message.nbytes:,} bytes and recovered intact: {np.allclose(recovered, stem_update)}"
    )

    nonce = random_bytes(rng, 16)
    device_key = b"device-provisioned-key-0123456789"
    quote = shielded.enclave.attest(nonce, device_key)
    accepted = verify_quote(quote, shielded.enclave.measurement(), nonce, device_key)
    print(f"remote attestation of the client enclave accepted by the server: {accepted}")


if __name__ == "__main__":
    main()
