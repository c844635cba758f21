"""The per-shard circuit breaker: state machine and deterministic backoff.

Pure-logic tests (the breaker does no I/O and reads no clock — callers
pass ``now``), so every transition is driven explicitly:

- closed → open on failure, open → half-open once the backoff lapses,
  half-open → closed on success / back to open on failure;
- backoff grows with decorrelated jitter, capped, and is reproducible
  for a fixed ``(seed, shard_id)`` — two breakers with the same seed
  schedule identical recovery probes, which is what keeps the chaos
  gate's replay deterministic.
"""

import pytest

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


def test_starts_closed_and_routes_to_the_ring():
    brk = CircuitBreaker(shard_id=0, seed=1)
    assert brk.state == CLOSED
    assert brk.state_name == "closed"
    assert brk.route(now=0.0) == "ring"
    assert brk.backoff == 0.0


def test_failure_opens_and_backoff_window_rejects_until_it_lapses():
    brk = CircuitBreaker(shard_id=0, seed=1, base_backoff=0.05,
                         max_backoff=2.0)
    brk.record_failure(now=10.0)
    assert brk.state == OPEN
    assert 0.05 <= brk.backoff <= 0.15  # first draw: uniform(base, 3*base)
    assert brk.open_until == 10.0 + brk.backoff
    # Inside the window: fallback.  The state does not move.
    assert brk.route(now=10.0) == "fallback"
    assert brk.route(now=brk.open_until - 1e-6) == "fallback"
    assert brk.state == OPEN
    # Past the window: one probe is allowed and the state is half-open.
    assert brk.route(now=brk.open_until + 1e-6) == "ring"
    assert brk.state == HALF_OPEN
    assert brk.state_name == "half-open"


def test_half_open_success_closes_and_resets_backoff():
    brk = CircuitBreaker(shard_id=0, seed=1)
    brk.record_failure(now=0.0)
    brk.route(now=brk.open_until + 1)  # -> half-open
    brk.record_success()
    assert brk.state == CLOSED
    assert brk.backoff == 0.0
    assert brk.route(now=100.0) == "ring"


def test_half_open_failure_reopens_with_grown_backoff():
    brk = CircuitBreaker(shard_id=0, seed=1, base_backoff=0.05,
                         max_backoff=2.0)
    brk.record_failure(now=0.0)
    first = brk.backoff
    brk.route(now=brk.open_until + 1)  # -> half-open
    brk.record_failure(now=5.0)
    assert brk.state == OPEN
    assert brk.open_until == 5.0 + brk.backoff
    # Decorrelated jitter draws from uniform(base, 3 * prev): growth is
    # probabilistic but bounded.
    assert 0.05 <= brk.backoff <= min(2.0, 3 * first)


def test_backoff_is_capped():
    brk = CircuitBreaker(shard_id=0, seed=1, base_backoff=0.5,
                         max_backoff=1.0)
    for i in range(20):
        brk.record_failure(now=float(i))
    assert brk.backoff <= 1.0


def test_backoff_schedule_is_seed_deterministic():
    def schedule(seed, shard_id):
        brk = CircuitBreaker(shard_id=shard_id, seed=seed)
        out = []
        for i in range(6):
            brk.record_failure(now=float(i))
            out.append(brk.backoff)
        return out

    assert schedule(7, 0) == schedule(7, 0)
    # Different shards (and different seeds) decorrelate.
    assert schedule(7, 0) != schedule(7, 1)
    assert schedule(7, 0) != schedule(8, 0)


def test_success_when_already_closed_is_a_no_op():
    brk = CircuitBreaker(shard_id=0, seed=1)
    brk.record_success()
    assert brk.state == CLOSED and brk.failures == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(0, base_backoff=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker(0, base_backoff=0.5, max_backoff=0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("knob", ["base_backoff", "max_backoff"])
def test_constructor_rejects_non_finite_backoff(knob, bad):
    """A NaN window would open the breaker until ``nan``, which every
    comparison treats as already past: it would never hold traffic off."""
    with pytest.raises(ValueError, match=knob):
        CircuitBreaker(0, **{knob: bad})
