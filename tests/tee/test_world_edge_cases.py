"""Edge cases of the world-switch cost model and enclave capacity checks.

Covers the corners the serving runtime leans on: zero-byte crossings (pure
context switches), counter reset semantics, and ``check_capacity`` failure
paths while sealing stem parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.tee.enclave import Enclave
from repro.tee.errors import EnclaveMemoryError
from repro.tee.world import WorldBoundary, WorldSwitchCostModel


class TestZeroBytePayloads:
    def test_zero_byte_crossing_costs_exactly_one_switch_latency(self):
        boundary = WorldBoundary(WorldSwitchCostModel(switch_latency_us=40.0))
        elapsed = boundary.enter_secure_world(0)
        assert elapsed == pytest.approx(40.0)
        assert boundary.stats.switches == 1
        assert boundary.stats.bytes_in == 0
        assert boundary.stats.bytes_out == 0
        assert boundary.stats.simulated_time_us == pytest.approx(40.0)

    def test_zero_byte_transfer_time_is_zero(self):
        model = WorldSwitchCostModel()
        assert model.transfer_time_us(0) == 0.0

    def test_zero_byte_roundtrip_counts_both_directions(self):
        boundary = WorldBoundary()
        boundary.secure_call(0, 0)
        assert boundary.stats.switches == 2
        assert boundary.stats.bytes_in == 0
        assert boundary.stats.bytes_out == 0
        assert not boundary.in_secure_world


class TestResetSemantics:
    def test_reset_clears_counters_and_world_flag(self):
        boundary = WorldBoundary()
        boundary.enter_secure_world(1024)
        assert boundary.in_secure_world
        boundary.reset()
        assert boundary.stats.switches == 0
        assert boundary.stats.bytes_in == 0
        assert boundary.stats.bytes_out == 0
        assert boundary.stats.simulated_time_us == 0.0
        assert not boundary.in_secure_world

    def test_reset_preserves_the_cost_model(self):
        model = WorldSwitchCostModel(switch_latency_us=7.0)
        boundary = WorldBoundary(model)
        boundary.enter_secure_world(64)
        boundary.reset()
        assert boundary.cost_model is model
        assert boundary.enter_secure_world(0) == pytest.approx(7.0)

    def test_stats_reset_is_idempotent(self):
        boundary = WorldBoundary()
        boundary.reset()
        boundary.reset()
        assert boundary.stats.switches == 0


class TestSealCapacityFailures:
    """Budgets are sized from the sealed parameters' own ``nbytes``: a
    Parameter takes the default dtype, so its element size follows
    ``REPRO_DTYPE``."""

    def _parameter(self, size: int, name: str) -> Parameter:
        return Parameter(np.zeros(size, dtype=np.float64), name=name)

    def test_seal_parameters_over_budget_raises(self):
        parameters = [self._parameter(100, "w0"), self._parameter(100, "w1")]
        # Room for one and a quarter of the two parameters.
        enclave = Enclave("tiny", memory_limit_bytes=parameters[0].nbytes * 5 // 4)
        with pytest.raises(EnclaveMemoryError, match="over budget"):
            enclave.seal_parameters(parameters)

    def test_partial_seal_keeps_earlier_parameters(self):
        # The capacity check runs per seal: parameters sealed before the
        # failing one stay resident (the caller decides whether to discard).
        parameters = [self._parameter(50, "fits"), self._parameter(200, "too_big")]
        enclave = Enclave("tiny", memory_limit_bytes=parameters[0].nbytes * 5 // 2)
        with pytest.raises(EnclaveMemoryError):
            enclave.seal_parameters(parameters, prefix="stem.")
        assert enclave.sealed_keys() == ["stem.fits.0"]
        assert enclave.used_bytes == parameters[0].nbytes == 50 * parameters[0].data.itemsize

    def test_reseal_same_key_accounts_the_delta_only(self):
        enclave = Enclave("tiny", memory_limit_bytes=1000)
        enclave.seal("w", np.zeros(100))  # 800 bytes of the 1000 budget
        # Re-sealing the same key replaces the old bytes: still only 800.
        enclave.seal("w", np.ones(100))
        assert enclave.used_bytes == 800
        np.testing.assert_array_equal(enclave.unseal("w", authorized=True), np.ones(100))

    def test_reseal_growth_beyond_budget_raises_and_keeps_old_value(self):
        enclave = Enclave("tiny", memory_limit_bytes=1000)
        enclave.seal("w", np.zeros(100))
        with pytest.raises(EnclaveMemoryError):
            enclave.seal("w", np.zeros(200))
        np.testing.assert_array_equal(enclave.unseal("w", authorized=True), np.zeros(100))

    def test_seal_parameters_may_fill_the_budget_exactly(self):
        parameter = self._parameter(100, "w")
        enclave = Enclave("snug", memory_limit_bytes=parameter.nbytes)
        sealed = enclave.seal_parameters([parameter])
        assert sealed == parameter.nbytes == 100 * parameter.data.itemsize
        assert enclave.used_bytes == parameter.nbytes
        enclave.check_capacity()  # at the limit, not over it

    def test_check_capacity_failure_during_shielded_model_construction(self):
        from repro.core.shielded_model import ShieldedModel
        from repro.models.simple import SimpleCNN, SimpleCNNConfig

        model = SimpleCNN(
            SimpleCNNConfig(in_channels=3, num_classes=4, widths=(4, 8), image_size=8)
        )
        starved = Enclave("starved", memory_limit_bytes=16)
        with pytest.raises(EnclaveMemoryError):
            ShieldedModel(model, enclave=starved)
