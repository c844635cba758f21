"""Edge-case tests for the engine (paths the main suite doesn't hit)."""

import pytest

from repro.des import Environment, SimulationError


def test_peek_empty_and_nonempty():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(5.0)
    assert env.peek() == 5.0


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1, value="payload")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_run_until_event_that_fails():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("inner")

    p = env.process(bad())
    with pytest.raises(ValueError, match="inner"):
        env.run(until=p)


def test_run_until_already_processed_event():
    env = Environment()

    def quick():
        yield env.timeout(1)
        return "early"

    p = env.process(quick())
    env.run()  # drains; p processed
    env.timeout(5)  # leave something in the queue
    assert env.run(until=p) == "early"


def test_run_until_exact_time_boundary():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(2.0)
        fired.append(env.now)

    env.process(proc())
    env.run(until=2.0)
    # The event at exactly t=2.0 fires before the boundary stop.
    assert fired == [2.0]
    assert env.now == 2.0


def test_run_past_queue_sets_clock_to_until():
    env = Environment()
    env.run(until=7.5)
    assert env.now == 7.5


def test_run_all_empty_list():
    env = Environment()
    assert env.run_all([]) == []


def test_nested_processes():
    """A process can wait on a process that waits on a process."""
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 1

    def middle():
        v = yield env.process(inner())
        yield env.timeout(1)
        return v + 1

    def outer():
        v = yield env.process(middle())
        return v + 1

    p = env.process(outer())
    assert env.run(until=p) == 3
    assert env.now == pytest.approx(2.0)


def test_exception_propagates_through_process_chain():
    env = Environment()

    def inner():
        yield env.timeout(1)
        raise KeyError("deep")

    def outer():
        try:
            yield env.process(inner())
        except KeyError:
            return "caught"

    p = env.process(outer())
    assert env.run(until=p) == "caught"


def test_condition_event_failure_propagates():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise RuntimeError("boom")

    def waiter():
        try:
            yield env.all_of([env.process(failing()), env.timeout(5)])
        except RuntimeError:
            return "handled"

    p = env.process(waiter())
    assert env.run(until=p) == "handled"


def test_zero_delay_timeout_runs_in_order():
    env = Environment()
    order = []

    def a():
        yield env.timeout(0)
        order.append("a")

    def b():
        yield env.timeout(0)
        order.append("b")

    env.process(a())
    env.process(b())
    env.run()
    assert order == ["a", "b"]


def test_negative_delay_raises():
    """A negative delay would schedule into the past and silently break
    the monotonic clock — symmetric with _schedule_at's check."""
    env = Environment()
    ev = env.event()
    with pytest.raises(ValueError, match="negative delay"):
        env._schedule(ev, delay=-0.5)
    env.run(until=3.0)
    with pytest.raises(ValueError, match="negative delay"):
        env._schedule(env.event(), delay=-1e-9)



@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_delay_raises(delay):
    """A NaN would break the future-event list's order and an infinite
    delay would drive the clock to infinity: both are refused up front,
    on every scheduling entry point."""
    env = Environment()
    with pytest.raises(ValueError, match="non-finite delay"):
        env.timeout(delay)
    with pytest.raises(ValueError, match="non-finite delay"):
        env._schedule(env.event(), delay=delay)
    with pytest.raises(ValueError, match="non-finite when"):
        env._schedule_at(env.event(), delay)
    assert env.peek() == float("inf")


def test_schedule_at_past_still_reported_as_past():
    env = Environment(initial_time=2.0)
    with pytest.raises(ValueError, match="in the past"):
        env._schedule_at(env.event(), 1.0)
    with pytest.raises(ValueError, match="in the past"):
        env._schedule_at(env.event(), float("-inf"))


def test_run_until_nan_raises():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(ValueError, match="nan"):
        env.run(until=float("nan"))
    assert env.now == 0.0

def test_double_schedule_raises_simulation_error():
    """Scheduling an event twice dispatches it twice; the second
    dispatch must be a clear SimulationError, not a bare assert."""
    env = Environment()
    ev = env.event()
    ev._ok = True
    ev._value = None
    env._schedule(ev)  # now-ring
    env._schedule(ev)
    with pytest.raises(SimulationError, match="dispatched twice"):
        env.run()


def test_double_schedule_raises_in_wheel_path_and_step():
    env = Environment()
    ev = env.event()
    ev._ok = True
    ev._value = None
    env._schedule(ev, delay=1.0)  # wheel
    env._schedule(ev, delay=2.0)
    env.step()
    with pytest.raises(SimulationError, match="dispatched twice"):
        env.step()
