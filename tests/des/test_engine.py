"""Tests for the DES event loop and process semantics."""

import pytest

from repro.des import Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(3.5)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        yield env.timeout(1.0)
        times.append(env.now)
        yield env.timeout(2.0)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [pytest.approx(1.0), pytest.approx(3.0)]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_run_until_time_stops_early():
    env = Environment()
    seen = []

    def proc():
        for _ in range(10):
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(proc())
    env.run(until=4.5)
    assert env.now == pytest.approx(4.5)
    assert len(seen) == 4


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield env.timeout(2)
        ev.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("kaboom")

    env.process(bad())
    with pytest.raises(RuntimeError, match="kaboom"):
        env.run()


def test_wait_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    results = []

    def late_waiter():
        yield env.timeout(5)
        results.append((yield ev))

    env.process(late_waiter())
    env.run()
    assert results == ["early"]


def test_all_of_waits_for_all():
    env = Environment()
    when = []

    def proc():
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(3, value="y")
        result = yield env.all_of([t1, t2])
        when.append(env.now)
        assert set(result.values()) == {"x", "y"}

    env.process(proc())
    env.run()
    assert when == [pytest.approx(3.0)]


def test_any_of_fires_at_first():
    env = Environment()
    when = []

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(9, value="slow")
        result = yield env.any_of([t1, t2])
        when.append(env.now)
        assert list(result.values()) == ["fast"]

    env.process(proc())
    env.run()
    assert when == [pytest.approx(1.0)]


def test_and_or_operators():
    env = Environment()

    def proc():
        both = env.timeout(1) & env.timeout(2)
        yield both
        assert env.now == pytest.approx(2.0)
        either = env.timeout(5) | env.timeout(3)
        yield either
        assert env.now == pytest.approx(5.0)  # 2 + 3

    p = env.process(proc())
    env.run(until=p)


def test_empty_all_of_fires_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 0.0


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42  # type: ignore[misc]

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_processes_interleave_deterministically():
    env = Environment()
    trace = []

    def proc(tag, delay):
        for _ in range(3):
            yield env.timeout(delay)
            trace.append((tag, env.now))

    env.process(proc("slow", 2.0))
    env.process(proc("fast", 1.0))
    env.run()
    assert trace == [
        ("fast", 1.0),
        ("slow", 2.0),
        ("fast", 2.0),
        ("fast", 3.0),
        ("slow", 4.0),
        ("slow", 6.0),
    ]


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(2)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive
