"""Property suite: EventWheel vs a sorted-list reference model.

The future-event list's contract is the engine's ordering discipline:
entries pop in ascending ``(time, seq)`` with ``seq`` assigned in push
order, and ``pop_batch`` hands over exactly one equal-time group, in
push order.  Everything the engine relies on — simultaneous timestamps,
ulp-adjacent timestamps, interleaved pushes and pops, ``peek_time`` and
the empty edges — is driven here against a model that is obviously
correct: a list kept sorted by ``bisect.insort``.
"""

from __future__ import annotations

import math
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.des.wheel import EventWheel

_ONE_UP = math.nextafter(1.0, 2.0)
_ONE_DOWN = math.nextafter(1.0, 0.0)

# Timestamps spanning many orders of magnitude, plus a small pool of
# values that collide exactly or differ by one ulp, so equal-time groups
# and their nearest neighbours are common.
TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.sampled_from(
        [0.0, 1e-9, 0.3, 0.1 + 0.2, _ONE_DOWN, 1.0, _ONE_UP, 1e3]
    ),
)


def _drain(wheel: EventWheel):
    out = []
    while wheel:
        out.append(wheel.pop())
    return out


@given(st.lists(TIMES, max_size=200))
def test_pop_order_matches_sorted_list(times):
    wheel = EventWheel()
    for i, t in enumerate(times):
        wheel.push(t, i)
    assert _drain(wheel) == sorted((t, i) for i, t in enumerate(times))
    assert len(wheel) == 0 and not wheel
    assert wheel.peek_time() == math.inf


@given(st.lists(st.sampled_from([0.0, 0.25, 0.25, 1.0]), max_size=64))
def test_simultaneous_timestamps_pop_fifo(times):
    wheel = EventWheel()
    for i, t in enumerate(times):
        wheel.push(t, i)
    assert _drain(wheel) == sorted((t, i) for i, t in enumerate(times))


@given(st.lists(TIMES, min_size=1, max_size=100), st.data())
def test_pop_batch_groups_equal_times(times, data):
    wheel = EventWheel()
    # Force collisions: duplicate a random subset of timestamps.
    dupes = data.draw(st.lists(st.sampled_from(times), max_size=20))
    seq = list(times) + dupes
    expected = sorted((t, i) for i, t in enumerate(seq))
    for i, t in enumerate(seq):
        wheel.push(t, i)
    while wheel:
        group = []
        t0 = wheel.pop_batch(group.append)
        # Exactly one whole equal-time group, in push order.
        assert group == [i for t, i in expected if t == t0]
        assert expected[0][0] == t0
        expected = expected[len(group):]
    assert not expected
    with pytest.raises(IndexError):
        wheel.pop_batch([].append)


def test_ulp_adjacent_times_stay_separate_groups():
    wheel = EventWheel()
    for i, t in enumerate([_ONE_UP, 1.0, _ONE_DOWN, 1.0, _ONE_UP, _ONE_DOWN]):
        wheel.push(t, i)
    groups = []
    while wheel:
        group = []
        groups.append((wheel.pop_batch(group.append), group))
    assert groups == [(_ONE_DOWN, [2, 5]), (1.0, [1, 3]), (_ONE_UP, [0, 4])]


def test_payloads_are_never_compared():
    """Equal times tie-break on the push counter, so payloads without
    an ordering (every event object) are fine."""
    wheel = EventWheel()
    payloads = [object() for _ in range(5)]
    for p in payloads:
        wheel.push(0.5, p)
    group = []
    assert wheel.pop_batch(group.append) == 0.5
    assert group == payloads


class WheelVsSortedList(RuleBasedStateMachine):
    """Interleaved push / pop / pop_batch / peek against the reference,
    including whole equal-time groups pushed at once and pushes earlier
    than everything already queued."""

    def __init__(self):
        super().__init__()
        self.wheel = EventWheel()
        self.ref = []  # sorted (time, seq, payload); seq mirrors push order
        self.seq = 0

    def _push(self, t):
        payload = f"p{self.seq}"
        self.wheel.push(t, payload)
        insort(self.ref, (t, self.seq, payload))
        self.seq += 1

    @rule(t=TIMES)
    def push(self, t):
        self._push(t)

    @rule(t=TIMES, n=st.integers(min_value=2, max_value=5))
    def push_group(self, t, n):
        for _ in range(n):
            self._push(t)

    @precondition(lambda self: self.ref)
    @rule()
    def pop(self):
        t, _seq, payload = self.ref.pop(0)
        assert self.wheel.pop() == (t, payload)

    @precondition(lambda self: self.ref)
    @rule()
    def pop_batch(self):
        t0 = self.ref[0][0]
        n = sum(1 for t, _s, _p in self.ref if t == t0)
        expected = [p for _t, _s, p in self.ref[:n]]
        del self.ref[:n]
        group = []
        assert self.wheel.pop_batch(group.append) == t0
        assert group == expected

    @precondition(lambda self: not self.ref)
    @rule()
    def pop_empty(self):
        with pytest.raises(IndexError):
            self.wheel.pop()
        with pytest.raises(IndexError):
            self.wheel.pop_batch([].append)

    @invariant()
    def sizes_agree(self):
        assert len(self.wheel) == len(self.ref)
        assert bool(self.wheel) == bool(self.ref)

    @invariant()
    def peek_agrees(self):
        expected = self.ref[0][0] if self.ref else math.inf
        assert self.wheel.peek_time() == expected


WheelVsSortedList.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60
)
TestWheelVsSortedList = WheelVsSortedList.TestCase


def test_empty_edges():
    wheel = EventWheel()
    assert len(wheel) == 0 and not wheel
    assert wheel.peek_time() == math.inf
    with pytest.raises(IndexError):
        wheel.pop()
    with pytest.raises(IndexError):
        wheel.pop_batch([].append)
    wheel.push(1.0, "x")
    assert len(wheel) == 1 and wheel
    assert wheel.peek_time() == 1.0
    assert wheel.pop() == (1.0, "x")
    # Popped back to empty: every read path reports empty again.
    assert wheel.peek_time() == math.inf
    with pytest.raises(IndexError):
        wheel.pop()
