"""PELTA reproduction: TEE-shielded defense against evasion attacks in FL.

This package reproduces *"Mitigating Adversarial Attacks in Federated
Learning with Trusted Execution Environments"* (Queyrut, Schiavoni, Felber —
ICDCS 2023) end to end on a pure-NumPy substrate:

* :mod:`repro.autodiff` — reverse-mode autodiff with an explicit graph;
* :mod:`repro.nn` / :mod:`repro.models` — layer library and the defender zoo
  (ViT, ResNet-v2, BiT);
* :mod:`repro.tee` — simulated TrustZone enclaves, world switching,
  secure channels and attestation;
* :mod:`repro.core` — PELTA itself: the shielding algorithm (Alg. 1),
  shielded models and the restricted white-box views;
* :mod:`repro.attacks` — FGSM, PGD, MIM, APGD, C&W, SAGA, the random
  baseline and the BPDA-style upsampling substitutes;
* :mod:`repro.fl` — the federated learning substrate with honest and
  compromised clients;
* :mod:`repro.data` / :mod:`repro.eval` — synthetic benchmark datasets and
  the experiment engine (:mod:`repro.eval.engine`) regenerating the paper's
  tables and figures.
"""

from repro.core.shielded_model import ShieldedModel
from repro.core.shielding import pelta_shield
from repro.core.views import FullWhiteBoxView, RestrictedWhiteBoxView
from repro.utils.rng import set_global_seed

__version__ = "1.0.0"

__all__ = [
    "FullWhiteBoxView",
    "RestrictedWhiteBoxView",
    "ShieldedModel",
    "__version__",
    "pelta_shield",
    "set_global_seed",
]
