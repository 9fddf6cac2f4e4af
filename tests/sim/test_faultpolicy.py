"""Unit tests for the shared delivery-fault policy module."""

from __future__ import annotations

import random

import pytest

from repro.sim import faultpolicy
from repro.sim.faultpolicy import (
    DELIVER,
    DROP,
    RETRY,
    WindowSet,
    delivery_action,
    reorder_combine,
    retry_action,
    send_copies,
)
from repro.sim.network import LatencyModel


# ----------------------------------------------------------------------
# send_copies
# ----------------------------------------------------------------------
def test_reliable_kinds_are_exempt_from_loss_and_duplication():
    rng = random.Random(0)
    for _ in range(50):
        assert send_copies(rng, reliable=True, drop_prob=1.0, dup_prob=1.0) == 1


def test_send_copies_loss_wins_over_duplication():
    rng = random.Random(0)
    assert send_copies(rng, reliable=False, drop_prob=1.0, dup_prob=1.0) == 0


def test_send_copies_duplication():
    rng = random.Random(0)
    assert send_copies(rng, reliable=False, drop_prob=0.0, dup_prob=1.0) == 2


def test_send_copies_draws_nothing_when_probs_zero():
    """Zero-prob paths must not consume RNG state (seed digests pin this)."""
    rng_a, rng_b = random.Random(7), random.Random(7)
    send_copies(rng_a, reliable=False, drop_prob=0.0, dup_prob=0.0)
    assert rng_a.random() == rng_b.random()


# ----------------------------------------------------------------------
# delivery_action
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "reliable,blocked,known,crashed,retry_crashed,expected",
    [
        # clear path delivers
        (False, False, True, False, False, DELIVER),
        (True, False, True, False, False, DELIVER),
        # blocked link: reliable retries, unreliable drops
        (True, True, True, False, False, RETRY),
        (False, True, True, False, False, DROP),
        # crashed destination: drop, unless a reliable session with
        # retry_crashed holds the message for redelivery
        (False, False, True, True, False, DROP),
        (True, False, True, True, False, DROP),
        (True, False, True, True, True, RETRY),
        (False, False, True, True, True, DROP),
        # unknown destination never retries
        (True, False, False, False, True, DROP),
    ],
)
def test_delivery_action_table(
    reliable, blocked, known, crashed, retry_crashed, expected
):
    assert (
        delivery_action(
            reliable=reliable,
            link_blocked=blocked,
            dst_known=known,
            dst_crashed=crashed,
            retry_crashed=retry_crashed,
        )
        is expected
    )


def test_retry_action_gives_up_at_limit(monkeypatch):
    monkeypatch.setattr(faultpolicy, "RETRY_LIMIT", 3)
    assert retry_action(0) is RETRY
    assert retry_action(2) is RETRY
    assert retry_action(3) is DROP
    assert retry_action(10) is DROP


# ----------------------------------------------------------------------
# window composition
# ----------------------------------------------------------------------
def test_windowset_restores_baseline_after_overlap():
    windows = WindowSet()
    value = 0.1  # the baseline
    value = windows.begin(0.5, value)
    assert value == 0.5
    value = windows.begin(0.3, value)
    assert value == 0.5  # max of open windows
    value = windows.end(0.5)
    assert value == 0.3
    value = windows.end(0.3)
    assert value == 0.1  # baseline restored when the last window closes
    assert not windows._open


def test_reorder_combine_scales_jitter():
    base = LatencyModel(base=0.001, jitter=0.002)
    combined = reorder_combine(base, [3.0, 5.0], LatencyModel)
    assert combined.base == base.base
    assert combined.jitter == pytest.approx(0.01)
    assert reorder_combine(base, [], LatencyModel) is base


def test_reorder_combine_zero_jitter_baseline():
    base = LatencyModel(base=0.004, jitter=0.0)
    combined = reorder_combine(base, [2.0], LatencyModel)
    assert combined.jitter == pytest.approx(0.008)


def test_policy_constants_are_distinct():
    assert len({faultpolicy.DELIVER, faultpolicy.DROP, faultpolicy.RETRY}) == 3
