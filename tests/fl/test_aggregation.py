"""Tests for the FL aggregation rules."""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fl import (
    AGGREGATION_RULES,
    FedavgStream,
    MedianStream,
    ModelUpdate,
    TrimmedMeanStream,
)
from tests.fl.aggregate import aggregate

#: Every rule, parametrized under its scenario name.
RULES = pytest.mark.parametrize(
    "rule", list(AGGREGATION_RULES.values()), ids=list(AGGREGATION_RULES)
)
ROBUST_RULES = pytest.mark.parametrize(
    "rule", [MedianStream, TrimmedMeanStream], ids=["median", "trimmed_mean"]
)


def _update(client_id: str, value: float, num_samples: int = 10) -> ModelUpdate:
    return ModelUpdate(
        client_id=client_id,
        round_index=0,
        num_samples=num_samples,
        state={"w": np.full((2, 2), value), "b": np.full(2, value)},
    )


class TestFedAvg:
    def test_equal_weights_give_plain_mean(self):
        aggregated = aggregate(FedavgStream, [_update("a", 1.0), _update("b", 3.0)])
        np.testing.assert_allclose(aggregated["w"], 2.0)
        np.testing.assert_allclose(aggregated["b"], 2.0)

    def test_sample_count_weighting(self):
        updates = [_update("a", 0.0, num_samples=30), _update("b", 4.0, num_samples=10)]
        aggregated = aggregate(FedavgStream, updates)
        np.testing.assert_allclose(aggregated["w"], 1.0)

    def test_single_update_is_identity(self):
        update = _update("a", 5.0)
        aggregated = aggregate(FedavgStream, [update])
        np.testing.assert_allclose(aggregated["w"], update.state["w"])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate(FedavgStream, [])

    def test_zero_total_samples_rejected(self):
        with pytest.raises(ValueError):
            aggregate(FedavgStream, [_update("a", 1.0, num_samples=0)])

    def test_negative_sample_count_contributes_nothing(self):
        updates = [_update("a", 2.0), _update("evil", 100.0, num_samples=-5)]
        aggregated = aggregate(FedavgStream, updates)
        np.testing.assert_array_equal(aggregated["w"], np.full((2, 2), 2.0))

    def test_mismatching_keys_rejected(self):
        good = _update("a", 1.0)
        bad = ModelUpdate(client_id="b", round_index=0, num_samples=5, state={"other": np.ones(2)})
        with pytest.raises(ValueError):
            aggregate(FedavgStream, [good, bad])

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
        aggregated = aggregate(FedavgStream, updates)["w"]
        lower = np.minimum(a, b) - 1e-9
        upper = np.maximum(a, b) + 1e-9
        assert np.all(aggregated >= lower) and np.all(aggregated <= upper)


class TestRobustRules:
    def test_median_ignores_a_single_outlier(self):
        updates = [_update("a", 1.0), _update("b", 1.2), _update("evil", 100.0)]
        aggregated = aggregate(MedianStream, updates)
        assert aggregated["w"].max() <= 1.2

    def test_trimmed_mean_discards_extremes(self):
        updates = [
            _update("a", 1.0),
            _update("b", 1.0),
            _update("c", 1.0),
            _update("d", 1.0),
            _update("evil", 1000.0),
        ]
        aggregated = aggregate(partial(TrimmedMeanStream, trim_fraction=0.2), updates)
        assert aggregated["w"].max() < 10.0

    def test_trimmed_mean_validates_fraction(self):
        with pytest.raises(ValueError):
            TrimmedMeanStream(_update("a", 1.0).state, 1, trim_fraction=0.6)

    def test_trimmed_mean_rejects_negative_fraction(self):
        with pytest.raises(ValueError, match="trim_fraction"):
            TrimmedMeanStream(_update("a", 1.0).state, 1, trim_fraction=-0.1)

    @ROBUST_RULES
    def test_robust_rules_reject_empty_list(self, rule):
        with pytest.raises(ValueError, match="empty"):
            aggregate(rule, [])

    def test_median_of_even_count_averages_middle_pair(self):
        updates = [_update("a", 1.0), _update("b", 2.0), _update("c", 4.0), _update("d", 9.0)]
        aggregated = aggregate(MedianStream, updates)
        np.testing.assert_array_equal(aggregated["w"], np.full((2, 2), 3.0))
        np.testing.assert_array_equal(aggregated["b"], np.full(2, 3.0))

    def test_trimmed_mean_with_zero_fraction_is_plain_mean(self):
        updates = [_update("a", 1.0), _update("b", 2.0), _update("evil", 9.0)]
        aggregated = aggregate(partial(TrimmedMeanStream, trim_fraction=0.0), updates)
        np.testing.assert_allclose(aggregated["w"], np.full((2, 2), 4.0))

    def test_rule_lookup(self):
        assert AGGREGATION_RULES == {
            "fedavg": FedavgStream,
            "median": MedianStream,
            "trimmed_mean": TrimmedMeanStream,
        }

    def test_update_nbytes(self):
        update = _update("a", 1.0)
        assert update.payload_nbytes == update.state["w"].nbytes + update.state["b"].nbytes


# --------------------------------------------------------------------------- #
# Per-key references, stacked reduces, dtype preservation, validation
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


class TestReferenceParity:
    """The streaming rules agree with naive per-key references."""

    def test_fedavg_matches_per_key_loop(self):
        updates = _random_updates(37)
        aggregated = aggregate(FedavgStream, updates)
        reference = _per_key_fedavg(updates)
        for key, value in reference.items():
            np.testing.assert_allclose(aggregated[key], value, rtol=1e-12, atol=1e-12)

    def test_median_matches_per_key_loop(self):
        updates = _random_updates(9)
        aggregated = aggregate(MedianStream, updates)
        reference = _per_key_median(updates)
        for key, value in reference.items():
            np.testing.assert_array_equal(aggregated[key], value)

    def test_trimmed_mean_matches_per_key_loop(self):
        updates = _random_updates(11)
        aggregated = aggregate(partial(TrimmedMeanStream, trim_fraction=0.2), updates)
        reference = _per_key_trimmed_mean(updates, trim_fraction=0.2)
        for key, value in reference.items():
            np.testing.assert_allclose(aggregated[key], value, rtol=1e-12, atol=1e-12)


class TestStreamingByteIdentity:
    @pytest.mark.parametrize("count", [2, 3, 5, 7, 8, 13])
    def test_fedavg_sums_in_participant_order(self, count):
        """Bytes of an in-order weighted sum per key; within 1e-12 of the exact mean."""
        updates = _random_updates(count)
        aggregated = aggregate(FedavgStream, updates)
        total_weight = sum(update.num_samples for update in updates)
        for key in updates[0].state:
            running = np.zeros_like(updates[0].state[key])
            for update in updates:
                running += update.num_samples * update.state[key]
            running /= total_weight
            assert aggregated[key].tobytes() == running.tobytes()
            exact = np.array(
                [
                    math.fsum(update.num_samples * update.state[key].flat[i] for update in updates)
                    / total_weight
                    for i in range(running.size)
                ]
            ).reshape(running.shape)
            scale = np.abs(exact).max()
            np.testing.assert_allclose(aggregated[key], exact, rtol=0, atol=1e-12 * scale)

    @ROBUST_RULES
    def test_robust_rules_do_not_depend_on_client_order(self, rule):
        """Order statistics see a set: any permutation of the clients gives the same bytes."""
        updates = _random_updates(8)
        permuted = [updates[index] for index in np.random.default_rng(3).permutation(8)]
        aggregated = aggregate(rule, updates)
        shuffled = aggregate(rule, permuted)
        for key, value in aggregated.items():
            assert shuffled[key].tobytes() == value.tobytes()

    @pytest.mark.parametrize(
        "rule, reference",
        [
            (MedianStream, lambda stacked: np.median(stacked, axis=0)),
            (TrimmedMeanStream, lambda stacked: np.sort(stacked, axis=0)[1:-1].mean(axis=0)),
        ],
        ids=["median", "trimmed_mean"],
    )
    def test_robust_rules_reduce_each_stacked_key(self, rule, reference):
        """One reduce over each key's ``(clients, *shape)`` buffer, nothing chunked."""
        updates = _random_updates(7)  # trim_fraction 0.2 of 7 clients drops one per side
        aggregated = aggregate(rule, updates)
        for key in updates[0].state:
            stacked = np.stack([update.state[key] for update in updates])
            assert aggregated[key].tobytes() == reference(stacked).tobytes()

    @ROBUST_RULES
    def test_robust_rules_leave_client_updates_untouched(self, rule):
        """The in-place reduce works on the aggregator's own buffers."""
        updates = _random_updates(5)
        before = [
            {key: value.copy() for key, value in update.state.items()} for update in updates
        ]
        aggregate(rule, updates)
        for update, saved in zip(updates, before):
            for key, value in saved.items():
                np.testing.assert_array_equal(update.state[key], value)

    def test_trim_fraction_preset_aggregates_with_its_fraction(self):
        updates = _random_updates(10)
        preset = aggregate(partial(TrimmedMeanStream, trim_fraction=0.3), updates)
        default = aggregate(TrimmedMeanStream, updates)
        assert any(preset[key].tobytes() != default[key].tobytes() for key in preset)

    def test_streamed_counts_are_enforced(self):
        updates = _random_updates(4)
        streamer = FedavgStream(updates[0].state, 3)
        for update in updates[:3]:
            streamer.add(update)
        with pytest.raises(ValueError):
            streamer.add(updates[3])
        short = FedavgStream(updates[0].state, 3)
        short.add(updates[0])
        with pytest.raises(ValueError):
            short.finalize()


class TestDtypePreservation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @RULES
    def test_aggregate_keeps_update_dtype(self, rule, dtype):
        updates = _random_updates(6, dtype=dtype)
        aggregated = aggregate(rule, updates)
        for key, value in aggregated.items():
            assert value.dtype == np.dtype(dtype), (key, value.dtype)
            assert value.shape == updates[0].state[key].shape

    @RULES
    def test_list_valued_state_is_accepted(self, rule):
        """Values only need to convert to the schema's shape and dtype."""
        template = {"w": np.zeros(3)}
        aggregator = rule(template, 2)
        for value in ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]):
            aggregator.add(
                ModelUpdate(client_id="c", round_index=0, num_samples=1, state={"w": value})
            )
        np.testing.assert_allclose(aggregator.finalize()["w"], [2.0, 2.0, 2.0])

    @RULES
    def test_mixed_dtype_schema_keeps_each_key_dtype(self, rule):
        """Each key aggregates in its own dtype; nothing is promoted."""
        updates = [
            ModelUpdate(
                client_id=f"c{index}",
                round_index=0,
                num_samples=3,
                state={"a": np.full(2, index, dtype=np.float32), "b": np.full(2, 2.0 * index)},
            )
            for index in range(3)
        ]
        aggregated = aggregate(rule, updates)
        assert aggregated["a"].dtype == np.float32
        assert aggregated["b"].dtype == np.float64
        np.testing.assert_allclose(aggregated["a"], 1.0)
        np.testing.assert_allclose(aggregated["b"], 2.0)


class TestValidationErrors:
    """An update off the broadcast schema fails naming the client and the key."""

    def _with_state(self, updates, index, state):
        updates[index] = ModelUpdate(
            client_id=f"c{index}", round_index=0, num_samples=5, state=state
        )
        return updates

    @RULES
    def test_missing_key_names_client_and_key(self, rule):
        updates = _random_updates(3)
        broken = dict(updates[1].state)
        del broken["conv.bias"]
        with pytest.raises(ValueError, match=r"client 'c1'.*missing.*conv\.bias"):
            aggregate(rule, self._with_state(updates, 1, broken))

    @RULES
    def test_extra_key_names_client_and_key(self, rule):
        updates = _random_updates(3)
        extra = dict(updates[2].state, rogue=np.zeros(1))
        with pytest.raises(ValueError, match=r"client 'c2'.*unexpected.*rogue"):
            aggregate(rule, self._with_state(updates, 2, extra))

    @RULES
    def test_shape_mismatch_names_client_and_key(self, rule):
        updates = _random_updates(3)
        bad = dict(updates[1].state)
        bad["fc.weight"] = bad["fc.weight"].T.copy()
        with pytest.raises(ValueError, match=r"c1.*fc\.weight.*shape"):
            aggregate(rule, self._with_state(updates, 1, bad))

    @RULES
    def test_dtype_mismatch_names_client_and_key(self, rule):
        updates = _random_updates(3)
        bad = dict(updates[2].state)
        bad["conv.bias"] = bad["conv.bias"].astype(np.float32)
        with pytest.raises(ValueError, match=r"c2.*conv\.bias.*dtype"):
            aggregate(rule, self._with_state(updates, 2, bad))

    def test_schema_is_the_template_not_the_first_update(self):
        """Validation is against the broadcast, so a bad first update fails too."""
        updates = _random_updates(2)
        template = dict(updates[0].state)
        updates[0] = ModelUpdate(
            client_id="c0",
            round_index=0,
            num_samples=5,
            state=dict(template, **{"conv.bias": np.zeros(4)}),
        )
        aggregator = FedavgStream(template, 2)
        with pytest.raises(ValueError, match=r"c0.*conv\.bias.*shape"):
            aggregator.add(updates[0])
