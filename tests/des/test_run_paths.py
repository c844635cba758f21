"""Dispatch-order parity across the engine's run paths.

``Environment.run()`` drains through ``_drain`` (or ``_drain_hooked``
when a step hook is installed), which promotes a whole equal-time group
from the future-event list onto the now-ring in one call; ``step()``
pops one event at a time; ``run(until=t)`` steps up to each bound and
parks the clock there.  All of them must dispatch the same events in
the same order at the same times.  The schedules below mix
timeouts with tied and zero delays, ``succeed()`` chains and
end-of-instant callbacks that schedule further work.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment

# 0.1 + 0.2 != 0.3: two times one ulp apart, next to exact ties.
DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 0.5, 1.0])
ACTIONS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("chain"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("eoi"), DELAYS),
)
PROGRAMS = st.lists(st.lists(ACTIONS, max_size=6), min_size=1, max_size=6)
SLICES = st.lists(
    st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 1.0]), min_size=1, max_size=8
)


def _build(env: Environment, programs, log: list) -> None:
    def note(*tag):
        log.append((env.now,) + tag)

    def proc(pid, actions):
        for k, (kind, arg) in enumerate(actions):
            if kind == "timeout":
                yield env.timeout(arg)
            elif kind == "chain":
                # Each event's callback succeeds the next one at ``now``.
                head = ev = env.event()
                for j in range(arg):
                    nxt = env.event()
                    ev.callbacks.append(
                        lambda _e, j=j, nxt=nxt: (note(pid, k, "link", j),
                                                  nxt.succeed())
                    )
                    ev = nxt
                head.succeed()
                yield ev
            else:

                def at_end(pid=pid, k=k, delay=arg):
                    note(pid, k, "eoi")
                    env.timeout(delay).callbacks.append(
                        lambda _e: note(pid, k, "eoi-timeout")
                    )

                env.at_end_of_instant(at_end)
            note(pid, k, kind)

    for pid, actions in enumerate(programs):
        env.process(proc(pid, actions))


def _run(programs, drive, hooked: bool = True) -> list:
    env = Environment()
    log: list = []
    if hooked:
        env.set_step_hook(
            lambda ev, when: log.append((when, type(ev).__name__))
        )
    _build(env, programs, log)
    drive(env)
    assert env.peek() == math.inf
    log.append(("executed", env.events_executed))
    return log


def _without_hook_entries(log: list) -> list:
    """The process notes and the event count: what a run without a
    step hook logs."""
    return [entry for entry in log if len(entry) != 2 or entry[0] == "executed"]


def _step_loop(env: Environment) -> None:
    while env.peek() != math.inf:
        env.step()


def _sliced(slices):
    def drive(env: Environment) -> None:
        t = env.now
        i = 0
        while env.peek() != math.inf:
            t += slices[i % len(slices)]
            i += 1
            env.run(until=t)
            assert env.now == t

    return drive


@settings(max_examples=150, deadline=None)
@given(PROGRAMS, SLICES)
def test_dispatch_order_identical_on_every_run_path(programs, slices):
    drained = _run(programs, lambda env: env.run())
    assert _run(programs, _step_loop) == drained
    assert _run(programs, _sliced(slices)) == drained
    # The hook-free loop run() takes when no hook is installed.
    plain = _run(programs, lambda env: env.run(), hooked=False)
    assert plain == _without_hook_entries(drained)


def test_run_without_a_hook_takes_the_hook_free_loop(monkeypatch):
    def refuse(self):
        raise AssertionError("hooked loop taken without a hook")

    monkeypatch.setattr(Environment, "_drain_hooked", refuse)
    env = Environment()
    env.process((env.timeout(1.0) for _ in range(3)))
    env.run()
    assert env.events_executed == 5  # start, three timeouts, finish
    assert "hook" not in Environment._drain.__code__.co_varnames


def test_parity_scenario_exercises_ties():
    """A fixed schedule where a wheel group, the now-ring and an
    end-of-instant callback all share one instant."""
    programs = [
        [("timeout", 0.5), ("chain", 2), ("eoi", 0.0)],
        [("timeout", 0.5), ("timeout", 0.0), ("eoi", 0.5)],
        [("eoi", 0.5), ("timeout", 0.5)],
    ]
    drained = _run(programs, lambda env: env.run())
    assert _run(programs, _step_loop) == drained
    assert _run(programs, _sliced([0.25])) == drained
    assert _run(programs, lambda env: env.run(), hooked=False) == (
        _without_hook_entries(drained)
    )
    # Three processes dispatched at t=0.5 in one group, plus eoi work.
    assert sum(1 for entry in drained if entry[0] == 0.5) > 6
