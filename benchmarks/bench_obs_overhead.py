"""Observability overhead on the DES event loop.

The tentpole constraint on the instrumentation is that it is *free when
off*: with no :class:`~repro.obs.span.Observability` attached,
``Environment.run`` drains through ``_drain``, a loop with no step-hook
test at all (an installed hook selects ``_drain_hooked`` instead).  The
off-path cost is therefore zero by construction; this benchmark checks
it:

- ``test_off_path_is_the_hook_free_loop`` checks that structure: the
  production ``_drain`` binds the same names and locals as the baseline
  subclass's ``_drain``, a loop written without any hook;
- ``test_tracing_off_overhead_under_2pct`` times the production event
  loop (``Environment.run`` with no hook installed) against that
  baseline and asserts the off-path overhead stays under 2%;
- ``test_event_loop_throughput`` / ``..._hooked`` record absolute
  throughput with and without a live hook for the performance log.

Timings use best-of-repeats, taken in alternating order so that a drift
in machine speed hits both sides alike; best-of is the standard way to
strip scheduler noise from a CPU-bound microbenchmark.
"""

import time

from repro.des.engine import Environment, SimulationError

N_EVENTS = 50_000
REPEATS = 5
MAX_OFF_OVERHEAD = 0.02


class BaselineEnvironment(Environment):
    """``Environment`` whose ``_drain`` (the loop ``run()`` uses) is a
    copy written without any step-hook binding or check."""

    def _drain(self) -> None:
        wheel = self._wheel
        ring = self._ring
        eoi = self._eoi
        ring_pop = ring.popleft
        ring_append = ring.append
        wheel_pop_batch = wheel.pop_batch
        executed = 0
        try:
            while True:
                if ring:
                    event = ring_pop()
                elif eoi:
                    eoi.popleft()()
                    continue
                else:
                    try:
                        self._now = wheel_pop_batch(ring_append)
                    except IndexError:
                        break
                    continue
                executed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is None:
                    raise SimulationError(
                        f"{event!r} dispatched twice (scheduled again "
                        "after it was already processed?)"
                    )
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                if not event._ok and not event._defused:
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise SimulationError(
                        f"unhandled failed event with value {value!r}"
                    )
        finally:
            self.events_executed += executed


def pump(env_cls, n_events: int = N_EVENTS, hook=None) -> float:
    """Wall seconds to drain ``n_events`` timeout events."""

    def prog(env):
        for _ in range(n_events):
            yield env.timeout(1.0)

    env = env_cls()
    if hook is not None:
        env.set_step_hook(hook)
    env.process(prog(env))
    t0 = time.perf_counter()
    env.run()
    return time.perf_counter() - t0


def best_of_alternating(a, b, repeats: int = REPEATS) -> tuple[float, float]:
    """Best-of wall times of ``pump(a)`` and ``pump(b)``, measured in
    alternating order (a, b, then b, a, ...)."""
    times = {a: [], b: []}
    for r in range(repeats):
        for cls in ((a, b) if r % 2 == 0 else (b, a)):
            times[cls].append(pump(cls))
    return min(times[a]), min(times[b])


def test_baseline_runs_the_same_events():
    """The baseline overrides the loop ``run()`` drains through and
    dispatches the same events."""
    assert BaselineEnvironment._drain is not Environment._drain
    counts = []
    for cls in (BaselineEnvironment, Environment):
        env = cls()
        env.process((env.timeout(1.0) for _ in range(100)))
        env.run()
        counts.append((env.events_executed, env.now))
    assert counts[0] == counts[1]


def test_off_path_is_the_hook_free_loop():
    """With no hook installed, run() drains through a loop that binds
    exactly the baseline's names and locals: no hook load, no test."""
    prod = Environment._drain.__code__
    base = BaselineEnvironment._drain.__code__
    assert prod.co_names == base.co_names
    assert prod.co_varnames == base.co_varnames
    assert "_step_hook" not in prod.co_names


def test_tracing_off_overhead_under_2pct():
    pump(Environment)  # warm both classes before timing
    pump(BaselineEnvironment)
    baseline, off = best_of_alternating(BaselineEnvironment, Environment)
    overhead = off / baseline - 1.0
    assert overhead < MAX_OFF_OVERHEAD, (
        f"tracing-off event loop is {overhead:.1%} slower than the "
        f"uninstrumented baseline (budget {MAX_OFF_OVERHEAD:.0%}): "
        f"{off:.4f}s vs {baseline:.4f}s for {N_EVENTS} events"
    )


def test_hook_fires_per_event():
    seen = []
    pump(Environment, n_events=100, hook=lambda event, when: seen.append(when))
    assert len(seen) >= 100  # every processed event passes the hook


def test_event_loop_throughput(benchmark):
    benchmark.pedantic(pump, args=(Environment,), rounds=3, iterations=1)


def test_event_loop_throughput_hooked(benchmark):
    counter = []
    benchmark.pedantic(
        pump,
        args=(Environment,),
        kwargs={"hook": lambda event, when: counter.append(1)},
        rounds=3,
        iterations=1,
    )
