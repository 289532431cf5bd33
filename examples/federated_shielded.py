"""TEE-attested federated training, then SAGA vs the shielded global model.

End-to-end demo of the federation runtime:

1. four clients, each carrying a TrustZone enclave, enroll with the server's
   attestation gate; their quotes are verified before any update is trusted
   (a tampered quote is shown to be rejected);
2. the federation trains a global model over the default ``auto`` transport —
   local updates run in a fork pool, one worker per core, every
   broadcast/update sealed through the attested secure channels;
3. the trained global model is attacked with SAGA, once in the clear
   white-box setting and once with its stem shielded by PELTA.

Run with:  python examples/federated_shielded.py
"""

from __future__ import annotations

from repro.attacks import (
    AttackDriver,
    DriverConfig,
    SelfAttentionGradientAttack,
    make_attacker_view,
)
from repro.core.shielded_model import ShieldedModel
from repro.data import iid_partition, make_cifar10_like
from repro.fl import (
    ClientConfig,
    FederationRuntime,
    HonestClient,
    Transport,
)
from repro.models import SimpleCNN, SimpleCNNConfig
from repro.tee.attestation import AttestationQuote
from repro.tee.enclave import TrustZoneEnclave
from repro.tee.errors import AttestationError
from repro.utils import set_global_seed


def model_factory() -> SimpleCNN:
    """The architecture shared by the server and every client."""
    return SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=10, widths=(12, 24), image_size=32))


def main() -> None:
    set_global_seed(23)
    dataset = make_cifar10_like(train_per_class=48, test_per_class=12)
    partitions = iid_partition(dataset.train_labels, num_clients=4)
    clients = [
        HonestClient(
            f"client{i}",
            model_factory,
            dataset.train_images[part],
            dataset.train_labels[part],
            config=ClientConfig(local_epochs=3, batch_size=32, learning_rate=0.05),
            enclave=TrustZoneEnclave(name=f"client{i}.enclave"),
        )
        for i, part in enumerate(partitions)
    ]
    device_keys = {client.client_id: b"device-key-" + client.client_id.encode() for client in clients}

    runtime = FederationRuntime(
        global_model=model_factory(),
        clients=clients,
        transport=Transport("auto"),
    )
    sessions = runtime.attest_clients(device_keys)
    print(f"attested {len(sessions)} client enclave(s): {sorted(sessions)}")

    # A tampered quote never reaches the update path.
    rogue = TrustZoneEnclave(name="rogue.enclave")
    runtime.gate.enroll("rogue", b"rogue-device-key", rogue.measurement())

    def tampered(nonce: bytes) -> AttestationQuote:
        quote = rogue.attest(nonce, b"rogue-device-key")
        return AttestationQuote(
            enclave_name=quote.enclave_name,
            measurement=quote.measurement,
            nonce=quote.nonce,
            signature=bytes(value ^ 0x01 for value in quote.signature),
        )

    try:
        runtime.gate.establish("rogue", tampered)
    except AttestationError as error:
        print(f"tampered quote rejected: {error}")

    result = runtime.run(4, dataset.test_images, dataset.test_labels)
    print("federated accuracy per round:", [f"{a:.1%}" for a in result.accuracies])
    stats = runtime.secure_stats
    print(
        f"secure traffic: {stats.sealed_messages} sealed messages, "
        f"{stats.sealed_bytes / 1e6:.2f} MB through the attested channels"
    )

    # SAGA against the federated global model, clear vs PELTA-shielded.
    global_model = runtime.global_model
    correct = global_model.predict(dataset.test_images) == dataset.test_labels
    images = dataset.test_images[correct][:24]
    labels = dataset.test_labels[correct][:24]
    saga = SelfAttentionGradientAttack(epsilon=0.062, step_size=0.0062, steps=10, alpha_cnn=0.5)
    driver = AttackDriver(DriverConfig(backend="captured", active_set=False))

    clear = driver.run(saga, make_attacker_view(global_model), images, labels)
    print(f"SAGA success WITHOUT PELTA: {clear.success_rate:.1%}")

    shielded_view = make_attacker_view(ShieldedModel(global_model), strategy="auto")
    shielded = driver.run(saga, shielded_view, images, labels)
    print(f"SAGA success WITH PELTA:    {shielded.success_rate:.1%}")


if __name__ == "__main__":
    main()
