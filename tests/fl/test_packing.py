"""Tests of flat state packing: plans, validation, roundtrips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl import (
    build_plan,
    pack,
    pack_into,
    unpack,
)


def _state(rng=None, dtype=np.float64):
    rng = rng if rng is not None else np.random.default_rng(7)
    return {
        "conv.weight": rng.normal(size=(4, 2, 3, 3)).astype(dtype),
        "conv.bias": rng.normal(size=(4,)).astype(dtype),
        "fc.weight": rng.normal(size=(5, 16)).astype(dtype),
        "fc.bias": rng.normal(size=(5,)).astype(dtype),
    }


class TestPlan:
    def test_canonical_order_is_state_iteration_order(self):
        state = _state()
        plan = build_plan(state)
        assert plan.keys == tuple(state.keys())
        offsets = [field.start for field in plan.fields]
        assert offsets == sorted(offsets)
        assert plan.fields[0].start == 0
        assert plan.size == sum(np.asarray(v).size for v in state.values())
        assert plan.nbytes == plan.size * plan.dtype.itemsize

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            build_plan({})

    def test_plan_dtype_promotes_mixed_fields(self):
        plan = build_plan({"a": np.ones(2, dtype=np.float32), "b": np.ones(2)})
        assert plan.dtype == np.float64
        assert not plan.homogeneous

    def test_homogeneous_plan_flag(self):
        assert build_plan(_state()).homogeneous


class TestPackRoundtrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pack_unpack_roundtrip_preserves_shape_and_dtype(self, dtype):
        state = _state(dtype=dtype)
        plan = build_plan(state)
        vector = pack(plan, state)
        assert vector.dtype == np.dtype(dtype)
        restored = unpack(plan, vector)
        assert set(restored) == set(state)
        for key, value in state.items():
            assert restored[key].shape == value.shape
            assert restored[key].dtype == value.dtype
            np.testing.assert_array_equal(restored[key], value)

    def test_pack_into_matches_manual_concatenation(self):
        state = _state()
        plan = build_plan(state)
        out = np.empty(plan.size)
        pack_into(plan, state, out)
        expected = np.concatenate([state[key].reshape(-1) for key in plan.keys])
        np.testing.assert_array_equal(out, expected)

    def test_pack_into_matrix_row_leaves_other_rows_untouched(self):
        """The robust aggregators pack each client straight into its matrix row."""
        first, second = _state(np.random.default_rng(1)), _state(np.random.default_rng(2))
        plan = build_plan(first)
        matrix = np.full((3, plan.size), -7.0)
        pack_into(plan, first, matrix[0])
        pack_into(plan, second, matrix[2])
        np.testing.assert_array_equal(matrix[0], pack(plan, first))
        np.testing.assert_array_equal(matrix[1], np.full(plan.size, -7.0))
        np.testing.assert_array_equal(matrix[2], pack(plan, second))

    def test_pack_accepts_non_ndarray_values(self):
        plan = build_plan({"w": np.zeros(3)})
        packed = pack(plan, {"w": [1.0, 2.0, 3.0]})
        np.testing.assert_array_equal(packed, [1.0, 2.0, 3.0])

    def test_pack_heterogeneous_plan_promotes(self):
        state = {"a": np.ones(2, dtype=np.float32), "b": np.full(2, 2.0)}
        plan = build_plan(state)
        packed = pack(plan, state)
        assert packed.dtype == np.float64
        np.testing.assert_array_equal(packed, [1.0, 1.0, 2.0, 2.0])


class TestValidation:
    def test_missing_key_names_owner_and_key(self):
        state = _state()
        plan = build_plan(state)
        broken = dict(state)
        del broken["fc.bias"]
        with pytest.raises(ValueError, match=r"client 'c9'.*fc\.bias"):
            pack_into(plan, broken, np.empty(plan.size), owner="client 'c9'")

    def test_extra_key_rejected(self):
        state = _state()
        plan = build_plan(state)
        extra = dict(state, rogue=np.zeros(1))
        with pytest.raises(ValueError, match="rogue"):
            pack(plan, extra)

    def test_shape_mismatch_names_key(self):
        state = _state()
        plan = build_plan(state)
        bad = dict(state, **{"fc.weight": state["fc.weight"].T.copy()})
        with pytest.raises(ValueError, match=r"fc\.weight.*shape"):
            pack_into(plan, bad, np.empty(plan.size), owner="client 'evil'")

    def test_dtype_mismatch_names_key(self):
        state = _state()
        plan = build_plan(state)
        bad = dict(state, **{"conv.bias": state["conv.bias"].astype(np.float32)})
        with pytest.raises(ValueError, match=r"conv\.bias.*dtype"):
            pack(plan, bad)

    def test_validate_passes_clean_state(self):
        state = _state()
        plan = build_plan(state)
        plan.validate(state)  # must not raise
