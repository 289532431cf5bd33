"""Tests for the serving request queue and dynamic micro-batcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import BatchingPolicy, InferenceRequest, MicroBatcher, uniform_workload


def _request(index: int, arrival_us: float) -> InferenceRequest:
    return InferenceRequest(
        request_id=index, payload=np.full((3, 4, 4), float(index)), arrival_us=arrival_us
    )


class TestBatchingPolicy:
    def test_pad_schedule_is_powers_of_two_up_to_max(self):
        assert BatchingPolicy(max_batch=8).pad_schedule() == (1, 2, 4, 8)
        assert BatchingPolicy(max_batch=6).pad_schedule() == (1, 2, 4, 6)
        assert BatchingPolicy(max_batch=1).pad_schedule() == (1,)

    def test_padded_size_rounds_up(self):
        policy = BatchingPolicy(max_batch=8)
        assert policy.padded_size(3) == 4
        assert policy.padded_size(4) == 4
        assert policy.padded_size(5) == 8

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait_us=-1.0)


class TestMicroBatcher:
    def test_cuts_at_max_batch(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=4, max_wait_us=1e9))
        for index in range(10):
            batcher.submit(_request(index, index * 10.0))
        batches = batcher.drain()
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert len(batcher) == 0
        # Capacity cut: the batch is ready when its last member arrived.
        assert batches[0].ready_us == 30.0

    def test_cuts_at_wait_budget(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=8, max_wait_us=100.0))
        batcher.submit(_request(0, 0.0))
        batcher.submit(_request(1, 50.0))
        batcher.submit(_request(2, 500.0))  # arrives after the head timed out
        batches = batcher.drain()
        assert [len(batch) for batch in batches] == [2, 1]
        # Timeout cut: the batch is ready at the head's deadline.
        assert batches[0].ready_us == 100.0
        assert batches[1].ready_us == 500.0

    def test_pads_to_schedule_by_repeating_last_sample(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=8, max_wait_us=1e9))
        for index in range(5):
            batcher.submit(_request(index, 0.0))
        (batch,) = batcher.drain()
        assert batch.pad == 3
        assert batch.inputs.shape[0] == 8
        np.testing.assert_array_equal(batch.inputs[5], batch.inputs[4])

    def test_rejects_out_of_order_arrivals(self):
        batcher = MicroBatcher(BatchingPolicy())
        batcher.submit(_request(0, 100.0))
        with pytest.raises(ValueError, match="arrival order"):
            batcher.submit(_request(1, 50.0))

    def test_uniform_workload_spacing(self):
        inputs = np.zeros((3, 1, 2, 2))
        requests = uniform_workload(inputs, inter_arrival_us=250.0)
        assert [request.arrival_us for request in requests] == [0.0, 250.0, 500.0]
        assert [request.request_id for request in requests] == [0, 1, 2]
