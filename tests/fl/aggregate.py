"""Test helper: run one aggregation rule over a list of updates."""

from __future__ import annotations


def aggregate(rule, updates):
    """Feed ``updates`` in order through a fresh ``rule`` aggregator.

    The first update's state stands in for the round's broadcast schema, as
    every update of a well-formed round carries the broadcast's keys.
    """
    aggregator = rule(updates[0].state if updates else {}, len(updates))
    for update in updates:
        aggregator.add(update)
    return aggregator.finalize()
