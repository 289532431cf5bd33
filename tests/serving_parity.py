"""The gateway's parity contract, as one assertion shared by the tests.

A gateway reply served in a cohort of several requests is compared with a
batch-of-one eager forward of the same payload.  The contract stated in
:mod:`repro.serve.gateway.gateway` asks, reply by reply, for the same argmax
and for ``max|Δlogits| <= PARITY_ULPS * eps(dtype) * max|eager logits|``.
Comparisons where both sides run the same batch composition stay
``assert_array_equal``.
"""

from __future__ import annotations

import numpy as np

from repro.serve.gateway.gateway import PARITY_ULPS


def assert_serving_parity(actual, eager) -> None:
    """Assert that every row of ``actual`` keeps the contract against ``eager``."""
    actual = np.asarray(actual)
    eager = np.asarray(eager)
    assert actual.shape == eager.shape, (actual.shape, eager.shape)
    assert actual.dtype == eager.dtype, (actual.dtype, eager.dtype)
    if actual.size == 0:
        return
    np.testing.assert_array_equal(actual.argmax(axis=1), eager.argmax(axis=1))
    eps = np.finfo(eager.dtype).eps
    error = np.abs(actual - eager).max(axis=1)
    bound = PARITY_ULPS * eps * np.abs(eager).max(axis=1)
    worst = int(np.argmax(error - bound))
    assert np.all(error <= bound), (
        f"reply {worst}: max|Δlogits| {error[worst]:.3e} exceeds "
        f"{PARITY_ULPS} * eps * max|eager logits| = {bound[worst]:.3e}"
    )
