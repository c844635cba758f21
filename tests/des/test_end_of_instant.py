"""End-of-instant callbacks: run once ``now`` is exhausted, before the
clock advances, in registration order, on every run path."""

import pytest

from repro.des import Environment


def _scenario(env, log):
    """Two instants (t=0 and t=1) mixing events and callbacks."""

    def note(tag):
        return lambda *_: log.append((env.now, tag))

    def proc(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    def first():
        note("eoi-a")()
        # Scheduled at now: dispatched before the next callback runs.
        ev = env.event()
        ev.callbacks.append(note("event-from-a"))
        ev.succeed()
        # Registered from a callback: runs after everything above.
        env.at_end_of_instant(note("eoi-c"))

    env.process(proc("p0", 0.0))
    env.process(proc("p1", 1.0))
    env.at_end_of_instant(first)
    env.at_end_of_instant(note("eoi-b"))

    def later():
        yield env.timeout(1.0)
        env.at_end_of_instant(note("eoi-at-1"))
        log.append((env.now, "registered-at-1"))

    env.process(later())


EXPECTED = [
    (0.0, "p0"),
    (0.0, "eoi-a"),
    (0.0, "event-from-a"),
    (0.0, "eoi-b"),
    (0.0, "eoi-c"),
    (1.0, "p1"),
    (1.0, "registered-at-1"),
    (1.0, "eoi-at-1"),
]


def _drain(env):
    env.run()


def _bounded_time(env):
    env.run(until=5.0)
    assert env.now == 5.0


def _bounded_event(env):
    stop = env.timeout(2.0)
    env.run(until=stop)


def _stepping(env):
    while env.peek() != float("inf"):
        env.step()


# The ids keep their "fast-" prefix so the test names stay stable.
@pytest.mark.parametrize(
    "drive", [_drain, _bounded_time, _bounded_event, _stepping],
    ids=["fast-run", "fast-run-until-time", "fast-run-until-event",
         "fast-step"],
)
def test_callbacks_run_at_the_end_of_each_instant(drive):
    env = Environment()
    log = []
    _scenario(env, log)
    drive(env)
    assert log == EXPECTED


def test_callback_sees_the_instant_before_the_clock_advances():
    env = Environment()
    seen = []
    env.timeout(3.0)
    env.at_end_of_instant(lambda: seen.append(env.now))
    env.run()
    assert seen == [0.0]
    assert env.now == 3.0


def test_bounded_run_settles_callbacks_before_stopping():
    """A callback pending at ``now`` runs before ``run(until=t)`` moves
    the clock to ``t`` — even with no event left at all."""
    env = Environment()
    seen = []
    env.at_end_of_instant(lambda: seen.append(env.now))
    env.run(until=2.0)
    assert seen == [0.0]
    assert env.now == 2.0


def test_peek_reports_now_while_a_callback_is_pending():
    env = Environment()
    env.timeout(4.0)
    assert env.peek() == 4.0
    env.at_end_of_instant(lambda: None)
    assert env.peek() == 0.0


def test_step_runs_one_callback_without_counting_an_event():
    env = Environment()
    calls = []
    env.at_end_of_instant(lambda: calls.append(1))
    env.at_end_of_instant(lambda: calls.append(2))
    env.step()
    assert calls == [1]
    env.step()
    assert calls == [1, 2]
    assert env.events_executed == 0
    assert env.peek() == float("inf")


def test_callback_can_schedule_at_now_and_resume_a_process():
    """The fast-path pattern: a process waits on an event that an
    end-of-instant callback triggers at the same instant."""
    env = Environment()
    gate = env.event()
    resumed = []

    def waiter():
        value = yield gate
        resumed.append((env.now, value))

    env.process(waiter())
    env.timeout(1.0)
    env.at_end_of_instant(lambda: gate.succeed("decided"))
    env.run()
    assert resumed == [(0.0, "decided")]
