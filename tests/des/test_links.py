"""Tests for the fair-share bandwidth link, including hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, FairShareLink
from repro.des.links import lockstep_finish


def run_transfers(bandwidth, latency, sizes, starts=None, overhead=1.0,
                  api="event"):
    """Run transfers and return their completion times (in start order).

    ``api`` picks the entry point: ``"event"`` yields :meth:`transfer`'s
    event, ``"cb"`` passes a completion callback to ``transfer_cb``."""
    env = Environment()
    link = FairShareLink(env, bandwidth=bandwidth, latency=latency,
                         per_byte_overhead=overhead)
    done_times = [None] * len(sizes)
    starts = starts or [0.0] * len(sizes)

    def sender(i):
        yield env.timeout(starts[i])
        if api == "cb":
            link.transfer_cb(sizes[i],
                             lambda: done_times.__setitem__(i, env.now))
            return
        yield link.transfer(sizes[i])
        done_times[i] = env.now

    for i in range(len(sizes)):
        env.process(sender(i))
    env.run()
    return done_times, link


# The latency cases run through both entry points: ``transfer_cb`` pays a
# latency exactly as ``transfer`` does.
APIS = ("event", "cb")


def test_single_transfer_latency_plus_bandwidth():
    for api in APIS:
        done, _ = run_transfers(bandwidth=100.0, latency=2.0,
                                sizes=[500.0], api=api)
        assert done[0] == pytest.approx(2.0 + 5.0), api


def test_zero_byte_transfer_costs_latency_only():
    for api in APIS:
        done, _ = run_transfers(bandwidth=100.0, latency=1.5, sizes=[0.0],
                                api=api)
        assert done[0] == pytest.approx(1.5), api


def test_two_equal_flows_share_bandwidth():
    # Two 100-byte flows on a 100 B/s link: each sees 50 B/s -> 2 s.
    done, _ = run_transfers(bandwidth=100.0, latency=0.0, sizes=[100.0, 100.0])
    assert done[0] == pytest.approx(2.0)
    assert done[1] == pytest.approx(2.0)


def test_unequal_flows_short_finishes_first():
    # 100 B and 300 B on 100 B/s: shared until t=2 (both sent 100B... the
    # short one finishes at 2.0), then the long one runs alone: 200 B left
    # at 100 B/s -> finishes at 4.0.  Total equals serial time (conservation).
    done, _ = run_transfers(bandwidth=100.0, latency=0.0, sizes=[100.0, 300.0])
    assert done[0] == pytest.approx(2.0)
    assert done[1] == pytest.approx(4.0)


def test_staggered_arrival():
    # Flow A (300 B) starts at t=0; flow B (100 B) at t=1.
    # A alone for 1 s -> 100 B sent. Then sharing at 50 B/s each.
    # B needs 2 s -> done at t=3. A has 200-100=100 B left at t=3,
    # then full rate -> done at t=4.
    done, _ = run_transfers(
        bandwidth=100.0, latency=0.0, sizes=[300.0, 100.0], starts=[0.0, 1.0]
    )
    assert done[0] == pytest.approx(4.0)
    assert done[1] == pytest.approx(3.0)


def test_per_byte_overhead_inflates_time():
    done_plain, _ = run_transfers(100.0, 0.0, [100.0])
    done_fat, _ = run_transfers(100.0, 0.0, [100.0], overhead=2.0)
    assert done_fat[0] == pytest.approx(2 * done_plain[0])


def test_peak_concurrency_recorded():
    _, link = run_transfers(100.0, 0.0, [100.0] * 5)
    assert link.peak_concurrency == 5
    assert link.active_flows == 0


def test_bytes_carried_accumulates():
    _, link = run_transfers(100.0, 0.0, [10.0, 20.0, 30.0])
    assert link.bytes_carried == pytest.approx(60.0)


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        FairShareLink(env, bandwidth=0)
    with pytest.raises(ValueError):
        FairShareLink(env, bandwidth=1, latency=-1)
    with pytest.raises(ValueError):
        FairShareLink(env, bandwidth=1, per_byte_overhead=0.5)
    link = FairShareLink(env, bandwidth=1)
    with pytest.raises(ValueError):
        link.transfer(-1)



@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"bandwidth": float("nan")}, "bandwidth"),
        ({"bandwidth": float("inf")}, "bandwidth"),
        ({"bandwidth": 1, "latency": float("nan")}, "latency"),
        ({"bandwidth": 1, "latency": float("inf")}, "latency"),
        ({"bandwidth": 1, "per_byte_overhead": float("nan")}, "per_byte_overhead"),
        ({"bandwidth": 1, "per_byte_overhead": float("inf")}, "per_byte_overhead"),
    ],
)
def test_validation_rejects_non_finite(kwargs, field):
    """Every comparison with NaN is false, so ``bandwidth <= 0`` alone
    would let a NaN capacity through and poison every completion time."""
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        FairShareLink(Environment(), **kwargs)

# --------------------------- property-based tests ---------------------------

sizes_strategy = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)


@given(sizes=sizes_strategy)
@settings(max_examples=60, deadline=None)
def test_property_work_conservation(sizes):
    """All flows starting together finish no earlier than the serial time of
    the shortest and exactly at total_bytes/bandwidth for the last one."""
    bw = 1000.0
    done, _ = run_transfers(bw, 0.0, sizes)
    assert all(t is not None for t in done)
    # Work conservation: link is busy until all bytes are through.
    assert max(done) == pytest.approx(sum(sizes) / bw, rel=1e-6)


@given(sizes=sizes_strategy)
@settings(max_examples=60, deadline=None)
def test_property_completion_order_matches_size_order(sizes):
    """With simultaneous arrivals, smaller flows never finish later."""
    done, _ = run_transfers(1000.0, 0.0, sizes)
    order_by_size = sorted(range(len(sizes)), key=lambda i: sizes[i])
    finish_sorted = [done[i] for i in order_by_size]
    assert finish_sorted == sorted(finish_sorted)


@given(
    sizes=sizes_strategy,
    starts=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_staggered_never_beats_dedicated_link(sizes, starts):
    """Shared completion time >= what a dedicated link would deliver."""
    n = min(len(sizes), len(starts))
    sizes, starts = sizes[:n], starts[:n]
    bw = 1000.0
    done, _ = run_transfers(bw, 0.0, sizes, starts=starts)
    for i in range(n):
        dedicated = starts[i] + sizes[i] / bw
        assert done[i] >= dedicated - 1e-6


@given(n=st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_property_equal_flows_finish_together(n):
    done, _ = run_transfers(500.0, 0.0, [250.0] * n)
    assert max(done) == pytest.approx(min(done))
    assert max(done) == pytest.approx(n * 250.0 / 500.0)


@given(
    when=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    n=st.integers(min_value=1, max_value=8),
    wire=st.one_of(
        st.just(0.0), st.just(5e-7),
        st.floats(min_value=1e-3, max_value=1e10, allow_nan=False),
    ),
    bw=st.floats(min_value=1e3, max_value=1e12, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_property_lockstep_finish_is_the_links_own_arithmetic(
    when, n, wire, bw
):
    """``lockstep_finish`` (the collective and halo closed forms' link
    model) equals, bit for bit, what the link computes for ``n`` equal
    flows admitted together at ``when`` — whenever it does not decline."""
    env = Environment()
    link = FairShareLink(env, bandwidth=bw)
    done = []

    def admit():
        yield env.timeout(when)
        for _ in range(n):
            link.transfer_cb(wire, lambda: done.append(env.now))

    env.process(admit())
    env.run()
    t = lockstep_finish(when, wire, n, bw)
    assert t is not None
    assert done == [t] * n
