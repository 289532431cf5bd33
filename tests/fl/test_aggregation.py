"""Tests for the FL aggregation rules."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fl import (
    CLIENT_GROUP_SIZE,
    ModelUpdate,
    build_plan,
    coordinate_median,
    pack,
    fedavg,
    get_aggregation_rule,
    streaming_aggregator_for,
    trimmed_mean,
)
from repro.fl.aggregation import tree_reduce


def _update(client_id: str, value: float, num_samples: int = 10) -> ModelUpdate:
    return ModelUpdate(
        client_id=client_id,
        round_index=0,
        num_samples=num_samples,
        state={"w": np.full((2, 2), value), "b": np.full(2, value)},
    )


class TestFedAvg:
    def test_equal_weights_give_plain_mean(self):
        aggregated = fedavg([_update("a", 1.0), _update("b", 3.0)])
        np.testing.assert_allclose(aggregated["w"], 2.0)
        np.testing.assert_allclose(aggregated["b"], 2.0)

    def test_sample_count_weighting(self):
        aggregated = fedavg([_update("a", 0.0, num_samples=30), _update("b", 4.0, num_samples=10)])
        np.testing.assert_allclose(aggregated["w"], 1.0)

    def test_single_update_is_identity(self):
        update = _update("a", 5.0)
        aggregated = fedavg([update])
        np.testing.assert_allclose(aggregated["w"], update.state["w"])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_zero_total_samples_rejected(self):
        with pytest.raises(ValueError):
            fedavg([_update("a", 1.0, num_samples=0)])

    def test_mismatching_keys_rejected(self):
        good = _update("a", 1.0)
        bad = ModelUpdate(client_id="b", round_index=0, num_samples=5, state={"other": np.ones(2)})
        with pytest.raises(ValueError):
            fedavg([good, bad])

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(dtype=np.float64, shape=(3,), elements=st.floats(-5, 5)),
        arrays(dtype=np.float64, shape=(3,), elements=st.floats(-5, 5)),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    def test_property_weighted_mean_between_extremes(self, a, b, na, nb):
        """FedAvg output must lie coordinate-wise between the two client values."""
        updates = [
            ModelUpdate(client_id="a", round_index=0, num_samples=na, state={"w": a}),
            ModelUpdate(client_id="b", round_index=0, num_samples=nb, state={"w": b}),
        ]
        aggregated = fedavg(updates)["w"]
        lower = np.minimum(a, b) - 1e-9
        upper = np.maximum(a, b) + 1e-9
        assert np.all(aggregated >= lower) and np.all(aggregated <= upper)


class TestRobustRules:
    def test_median_ignores_a_single_outlier(self):
        updates = [_update("a", 1.0), _update("b", 1.2), _update("evil", 100.0)]
        aggregated = coordinate_median(updates)
        assert aggregated["w"].max() <= 1.2

    def test_trimmed_mean_discards_extremes(self):
        updates = [
            _update("a", 1.0),
            _update("b", 1.0),
            _update("c", 1.0),
            _update("d", 1.0),
            _update("evil", 1000.0),
        ]
        aggregated = trimmed_mean(updates, trim_fraction=0.2)
        assert aggregated["w"].max() < 10.0

    def test_trimmed_mean_validates_fraction(self):
        with pytest.raises(ValueError):
            trimmed_mean([_update("a", 1.0)], trim_fraction=0.6)

    def test_trimmed_mean_rejects_negative_fraction(self):
        with pytest.raises(ValueError, match="trim_fraction"):
            trimmed_mean([_update("a", 1.0)], trim_fraction=-0.1)

    @pytest.mark.parametrize("rule", [coordinate_median, trimmed_mean])
    def test_robust_rules_reject_empty_list(self, rule):
        with pytest.raises(ValueError, match="empty"):
            rule([])

    def test_median_of_even_count_averages_middle_pair(self):
        updates = [_update("a", 1.0), _update("b", 2.0), _update("c", 4.0), _update("d", 9.0)]
        aggregated = coordinate_median(updates)
        np.testing.assert_array_equal(aggregated["w"], np.full((2, 2), 3.0))
        np.testing.assert_array_equal(aggregated["b"], np.full(2, 3.0))

    def test_trimmed_mean_with_zero_fraction_is_plain_mean(self):
        updates = [_update("a", 1.0), _update("b", 2.0), _update("evil", 9.0)]
        aggregated = trimmed_mean(updates, trim_fraction=0.0)
        np.testing.assert_allclose(aggregated["w"], np.full((2, 2), 4.0))

    def test_rule_lookup(self):
        assert get_aggregation_rule("fedavg") is fedavg
        assert get_aggregation_rule("median") is coordinate_median
        with pytest.raises(KeyError):
            get_aggregation_rule("krum")

    def test_update_nbytes(self):
        update = _update("a", 1.0)
        assert update.payload_nbytes == update.state["w"].nbytes + update.state["b"].nbytes


# --------------------------------------------------------------------------- #
# Packed-vs-per-key parity, streaming byte-identity, dtype preservation
# --------------------------------------------------------------------------- #
def _random_updates(count: int, dtype=np.float64, seed: int = 13) -> list[ModelUpdate]:
    rng = np.random.default_rng(seed)
    return [
        ModelUpdate(
            client_id=f"c{index}",
            round_index=0,
            num_samples=5 + (index % 7),
            state={
                "conv.weight": rng.normal(size=(3, 2, 2)).astype(dtype),
                "conv.bias": rng.normal(size=(3,)).astype(dtype),
                "fc.weight": rng.normal(size=(4, 6)).astype(dtype),
            },
        )
        for index in range(count)
    ]


def _per_key_fedavg(updates):
    total = sum(update.num_samples for update in updates)
    return {
        key: sum(
            (update.num_samples / total) * np.asarray(update.state[key])
            for update in updates
        )
        for key in updates[0].state
    }


def _per_key_median(updates):
    return {
        key: np.median(np.stack([update.state[key] for update in updates]), axis=0)
        for key in updates[0].state
    }


def _per_key_trimmed_mean(updates, trim_fraction=0.2):
    trim = int(np.floor(trim_fraction * len(updates)))
    out = {}
    for key in updates[0].state:
        stacked = np.sort(np.stack([update.state[key] for update in updates]), axis=0)
        kept = stacked[trim : len(updates) - trim] if len(updates) - 2 * trim > 0 else stacked
        out[key] = kept.mean(axis=0)
    return out


class TestPackedParity:
    """The packed rules agree with naive per-key references.

    The packed iteration order (broadcast ``state_dict`` order) is the
    canonical aggregation order; per-key results agree to float round-off
    while the packed bytes are the pinned ones.
    """

    def test_fedavg_matches_per_key_loop(self):
        updates = _random_updates(37)
        packed = fedavg(updates)
        reference = _per_key_fedavg(updates)
        for key, value in reference.items():
            np.testing.assert_allclose(packed[key], value, rtol=1e-12, atol=1e-12)

    def test_median_matches_per_key_loop(self):
        updates = _random_updates(9)
        packed = coordinate_median(updates)
        reference = _per_key_median(updates)
        for key, value in reference.items():
            np.testing.assert_array_equal(packed[key], value)

    def test_trimmed_mean_matches_per_key_loop(self):
        updates = _random_updates(11)
        packed = trimmed_mean(updates, trim_fraction=0.2)
        reference = _per_key_trimmed_mean(updates, trim_fraction=0.2)
        for key, value in reference.items():
            np.testing.assert_allclose(packed[key], value, rtol=1e-12, atol=1e-12)


class TestStreamingByteIdentity:
    def _streamed(self, rule, updates, **kwargs):
        plan = build_plan(updates[0].state)
        streamer = streaming_aggregator_for(rule, plan, len(updates))
        assert streamer is not None
        for update in updates:
            streamer.add(update)
        return streamer.finalize()

    @pytest.mark.parametrize("rule", [fedavg, coordinate_median, trimmed_mean])
    def test_streamed_bytes_equal_batch_bytes(self, rule):
        # Spans multiple fedavg client groups, including a partial tail.
        updates = _random_updates(CLIENT_GROUP_SIZE * 2 + 5)
        batch = rule(updates)
        streamed = self._streamed(rule, updates)
        assert set(batch) == set(streamed)
        for key in batch:
            assert batch[key].tobytes() == streamed[key].tobytes()

    @pytest.mark.parametrize(
        "rule, reference",
        [
            (coordinate_median, lambda matrix: np.median(matrix, axis=0)),
            (trimmed_mean, lambda matrix: np.sort(matrix, axis=0)[1:-1].mean(axis=0)),
        ],
    )
    def test_robust_rules_reduce_the_whole_packed_matrix(self, rule, reference):
        """One reduce over the stacked ``clients x params`` rows, nothing chunked."""
        updates = _random_updates(7)  # trim_fraction 0.2 of 7 clients drops one per side
        plan = build_plan(updates[0].state)
        matrix = np.stack([pack(plan, update.state) for update in updates])
        expected = reference(matrix)
        aggregated = rule(updates)
        assert pack(plan, aggregated).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rule", [coordinate_median, trimmed_mean])
    def test_robust_rules_leave_client_updates_untouched(self, rule):
        """The in-place reduce works on the aggregator's own packed rows."""
        updates = _random_updates(5)
        before = [
            {key: value.copy() for key, value in update.state.items()} for update in updates
        ]
        rule(updates)
        for update, saved in zip(updates, before):
            for key, value in saved.items():
                np.testing.assert_array_equal(update.state[key], value)

    def test_trim_fraction_preset_streams_with_its_fraction(self):
        updates = _random_updates(10)
        preset = functools.partial(trimmed_mean, trim_fraction=0.3)
        streamed = self._streamed(preset, updates)
        batch = preset(updates)
        default = trimmed_mean(updates)
        for key in batch:
            assert batch[key].tobytes() == streamed[key].tobytes()
        assert any(batch[key].tobytes() != default[key].tobytes() for key in batch)

    def test_streamed_counts_are_enforced(self):
        updates = _random_updates(4)
        plan = build_plan(updates[0].state)
        streamer = streaming_aggregator_for(fedavg, plan, 3)
        for update in updates[:3]:
            streamer.add(update)
        with pytest.raises(ValueError):
            streamer.add(updates[3])
        short = streaming_aggregator_for(fedavg, plan, 3)
        short.add(updates[0])
        with pytest.raises(ValueError):
            short.finalize()

    def test_unknown_rule_is_rejected(self):
        updates = _random_updates(2)
        plan = build_plan(updates[0].state)
        with pytest.raises(ValueError, match="no streaming form"):
            streaming_aggregator_for(lambda ups: {}, plan, 2)


class TestDtypePreservation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rule", [fedavg, coordinate_median, trimmed_mean])
    def test_aggregate_keeps_update_dtype(self, rule, dtype):
        updates = _random_updates(6, dtype=dtype)
        aggregated = rule(updates)
        for key, value in aggregated.items():
            assert value.dtype == np.dtype(dtype), (key, value.dtype)
            assert value.shape == updates[0].state[key].shape


class TestValidationErrors:
    def test_shape_mismatch_names_client_and_key(self):
        updates = _random_updates(3)
        bad_state = dict(updates[1].state)
        bad_state["fc.weight"] = bad_state["fc.weight"].T.copy()
        updates[1] = ModelUpdate(
            client_id="c1", round_index=0, num_samples=5, state=bad_state
        )
        for rule in (fedavg, coordinate_median, trimmed_mean):
            with pytest.raises(ValueError, match=r"c1.*fc\.weight"):
                rule(updates)

    def test_dtype_mismatch_names_client_and_key(self):
        updates = _random_updates(3)
        bad_state = dict(updates[2].state)
        bad_state["conv.bias"] = bad_state["conv.bias"].astype(np.float32)
        updates[2] = ModelUpdate(
            client_id="c2", round_index=0, num_samples=5, state=bad_state
        )
        for rule in (fedavg, coordinate_median, trimmed_mean):
            with pytest.raises(ValueError, match=r"c2.*conv\.bias"):
                rule(updates)


class TestTreeReduce:
    def test_single_slab_copies(self, rng):
        slab = rng.normal(size=(3, 4))
        out = np.empty_like(slab)
        tree_reduce([slab.copy()], out)
        assert out.tobytes() == slab.tobytes()

    @pytest.mark.parametrize("count", [2, 3, 5, 7, 8, 13])
    def test_sums_are_close_and_deterministic(self, rng, count):
        slabs = [rng.normal(size=(6, 5)) for _ in range(count)]
        out = np.empty((6, 5))
        tree_reduce([s.copy() for s in slabs], out)
        np.testing.assert_allclose(out, np.sum(slabs, axis=0), rtol=1e-9, atol=1e-12)
        again = np.empty((6, 5))
        tree_reduce([s.copy() for s in slabs], again)
        assert out.tobytes() == again.tobytes()

    def test_combine_order_is_a_function_of_count_alone(self, rng):
        """Filling leaves in any order (any worker schedule) changes nothing."""
        slabs = [rng.normal(size=(4, 4)) for _ in range(5)]
        expected = np.empty((4, 4))
        tree_reduce([s.copy() for s in slabs], expected)
        # The slab *list* is always indexed by client group, so arrival
        # order cannot matter — but prove the tree itself differs from a
        # naive left fold only in bits, not value.
        fold = slabs[0].copy()
        for slab in slabs[1:]:
            fold = fold + slab
        np.testing.assert_allclose(expected, fold, rtol=1e-9, atol=1e-12)
