"""The DES event loop and generator-based processes.

The :class:`Environment` keeps its future events in a ``heapq``
future-event list (:class:`repro.des.wheel.EventWheel`) keyed by
``(time, seq)``, plus a FIFO *now-ring* for events triggered at the
current instant; :meth:`Environment.run` pops events in order, executes
their callbacks, and thereby resumes any :class:`Process` waiting on
them.  Determinism: two events scheduled for the same time fire in
scheduling order (FIFO), which makes every simulation in this package
reproducible — the list's pop discipline is property-tested against a
sorted-list reference in ``tests/des/test_wheel.py``, and the dispatch
order of every run path against each other in
``tests/des/test_run_paths.py``.

*End-of-instant callbacks* (:meth:`Environment.at_end_of_instant`) run
once the current instant has nothing left to dispatch — its now-ring is
empty — and before the clock advances.  They let a component take one
decision that depends on everything that happened at ``now`` (the
collective fast path uses them to see whether every participant joined
in the same instant).
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Any, Callable, Generator, Iterable, Optional

from repro.des.events import AllOf, AnyOf, Event, Timeout
from repro.des.wheel import EventWheel


class SimulationError(RuntimeError):
    """Raised for engine-level errors (e.g. unhandled failed events)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary context (who interrupted, why) — failure
    injection uses it to model node crashes and job cancellations.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A simulation process wrapping a generator.

    The process itself is an event that fires when the generator returns;
    its value is the generator's return value.  The generator must yield
    :class:`Event` instances.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process via an immediately-scheduled initialisation
        # event so that process bodies never run during construction.
        init = Event(env)
        init._ok = True
        init._value = None
        env._schedule(init)
        init.callbacks.append(self._resume)
        self._waiting_on = init  # so interrupt-before-start detaches cleanly

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        The event the process was waiting on keeps running; the process
        simply stops waiting for it.  Interrupting a finished process is
        an error.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        relay = Event(self.env)
        relay._ok = False
        relay._value = Interrupt(cause)
        relay._defused = True  # the throw into the generator handles it
        self.env._schedule(relay)

        def deliver(ev: Event) -> None:
            # Detach at delivery time: by then the process has started (its
            # init event precedes the relay in the queue) and is suspended
            # at a yield, so the throw lands inside the body's try block.
            if self.triggered:
                return  # finished in the meantime; nothing to interrupt
            target = self._waiting_on
            if target is not None and target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
            self._waiting_on = None
            self._resume(ev)

        relay.callbacks.append(deliver)

    def _resume(self, by: Event) -> None:
        self._waiting_on = None
        try:
            if by._ok:
                target = self._generator.send(by._value)
            else:
                by._defused = True
                target = self._generator.throw(by._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
            try:
                self._generator.throw(exc)
            except BaseException as inner:
                self.fail(inner)
            return
        if target.env is not self.env:
            self.fail(SimulationError("yielded event from a different environment"))
            return
        self._waiting_on = target
        cbs = target.callbacks
        if cbs is None:  # already processed
            # Event already over: resume on a fresh immediate event carrying
            # the same outcome, preserving run-to-yield semantics.
            relay = Event(self.env)
            relay._ok = target._ok
            relay._value = target._value
            self.env._schedule(relay)
            relay.callbacks.append(self._resume)
        else:
            cbs.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Environment:
    """A simulation environment: clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Future events: the heap future-event list (strictly later
        #: than ``now``; assigns the FIFO tie-break sequence numbers).
        self._wheel = EventWheel()
        #: Events due at the current instant, in trigger order.  Ring
        #: entries always precede any *later* wheel entry and follow any
        #: wheel entry already due at ``now`` (scheduled while ``now``
        #: was smaller) — see :meth:`step`.
        self._ring = deque()
        #: End-of-instant callbacks (see :meth:`at_end_of_instant`), FIFO.
        self._eoi = deque()
        self._active = True
        self._step_hook: Optional[Callable[[Event, float], None]] = None
        #: Events executed by this environment since creation.  Counted
        #: unconditionally (a plain integer increment per step) so
        #: benchmarks and the ``des.events_executed`` metric can read it
        #: without installing a step hook.
        self.events_executed = 0

    # -- instrumentation -----------------------------------------------------
    def set_step_hook(
        self, hook: Optional[Callable[[Event, float], None]]
    ) -> None:
        """Install ``hook(event, time)``, called for every event the loop
        processes (before its callbacks run); ``None`` uninstalls.

        This is the event-loop attachment point of
        :meth:`repro.obs.span.Observability.bind`.  With no hook
        installed, :meth:`run` drains through a loop that has no hook
        test at all, so the unobserved path pays nothing for it.
        """
        self._step_hook = hook

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ------------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def at_end_of_instant(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once the current instant is exhausted.

        A callback runs when no event is left to dispatch at ``now`` and
        before the clock advances — on every run path (:meth:`run`
        unbounded or bounded, and :meth:`step`).  Callbacks run one at a
        time in registration order; whatever one schedules at ``now``
        (events, or further callbacks) is dispatched before the next
        callback runs, so each one observes a fully settled instant.
        """
        self._eoi.append(callback)

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not 0.0 <= delay < inf:
            # Symmetric with _schedule_at's check: a negative delay would
            # schedule into the past and break the monotonic clock; a NaN
            # would break the heap order and an infinite one would drive
            # the clock to infinity.
            kind = "negative" if delay < 0.0 else "non-finite"
            raise ValueError(f"{kind} delay {delay} (now={self._now})")
        when = self._now + delay
        if when <= self._now:
            self._ring.append(event)
        else:
            self._wheel.push(when, event)

    def _schedule_at(self, event: Event, when: float) -> None:
        """Schedule ``event`` at the absolute time ``when``.

        Engine-internal: used where the caller has computed an exact
        absolute timestamp and ``now + (when - now)`` would round
        differently (the collective fast path's closed-form schedule).
        """
        if not self._now <= when < inf:
            if when < self._now:
                raise ValueError(f"when={when} is in the past (now={self._now})")
            raise ValueError(f"non-finite when={when} (now={self._now})")
        if when <= self._now:
            self._ring.append(event)
        else:
            self._wheel.push(when, event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        when = self._wheel.peek_time()
        if when <= self._now:
            return when
        if self._ring or self._eoi:
            return self._now
        return when

    def step(self) -> None:
        """Process the next scheduled event.

        Pop discipline: wheel entries already due at ``now`` fire first
        (they were scheduled before the clock reached them, so they
        precede every ring entry in scheduling order), then the now-ring
        FIFO, then one end-of-instant callback (a step of its own, not
        counted in :attr:`events_executed`), then the clock advances to
        the earliest wheel entry.
        """
        wheel = self._wheel
        when = wheel.peek_time()
        if when <= self._now:
            _, event = wheel.pop()
        elif self._ring:
            event = self._ring.popleft()
        elif self._eoi:
            self._eoi.popleft()()
            return
        elif when != inf:
            when, event = wheel.pop()
            self._now = when
        else:
            raise SimulationError("step() on an empty event queue")
        self.events_executed += 1
        if self._step_hook is not None:
            self._step_hook(event, self._now)
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks is None:
            raise SimulationError(
                f"{event!r} dispatched twice (scheduled again after it "
                "was already processed?)"
            )
        if len(callbacks) == 1:
            # Fast path: the overwhelmingly common single-callback event
            # (timeouts, delivery-chain stages) skips the loop setup.
            callbacks[0](event)
        else:
            for cb in callbacks:
                cb(event)
        if not event._ok and not event._defused:
            value = event.value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"unhandled failed event with value {value!r}")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue drains; a number — run until
            the clock reaches it; an :class:`Event` — run until it fires and
            return its value.
        """
        stop_event: Optional[Event] = None
        stop_time = inf
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time != stop_time:
                raise ValueError("until=nan is not a time")
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} is in the past (now={self._now})")
        if stop_event is None and stop_time == inf:
            if self._step_hook is None:
                self._drain()
            else:
                self._drain_hooked()
            return None
        while self._wheel or self._ring or self._eoi:
            if stop_event is not None and stop_event.processed:
                if not stop_event.ok:
                    stop_event.defuse()
                    raise stop_event.value
                return stop_event.value
            if self.peek() > stop_time:
                self._now = stop_time
                return None
            self.step()
        if stop_event is not None:
            if stop_event.processed:
                if not stop_event.ok:
                    stop_event.defuse()
                    raise stop_event.value
                return stop_event.value
            raise SimulationError(
                "run(until=event) finished without the event firing (deadlock?)"
            )
        if stop_time != inf:
            self._now = stop_time
        return None

    def _drain(self) -> None:
        """Run until the event queue empties (no step hook installed).

        Dispatches in the same order as ``while self._wheel or self._ring
        or self._eoi: self.step()`` — the loop body is inlined with local
        bindings because this is the inner loop of every simulation
        (hundreds of thousands of iterations for the paper-scale runs).
        :meth:`_drain_hooked` is the same loop plus the step hook.
        """
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
                    # The instant is exhausted: run one end-of-instant
                    # callback, then dispatch whatever it scheduled.
                    eoi.popleft()()
                    continue
                else:
                    # Ring empty: advance the clock and promote the whole
                    # earliest-timestamp group out of the wheel in one
                    # call.  The group lands ahead of anything its
                    # callbacks append (wheel pushes are strictly future,
                    # so no *new* entry can join the group mid-dispatch),
                    # which is exactly scheduling order.  An empty wheel
                    # raises IndexError: the queue has drained.
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

    def _drain_hooked(self) -> None:
        """:meth:`_drain` with the step hook called before each dispatch.

        The hook is installed before run() (Observability.bind) and
        never swapped mid-drain, so it is bound once.
        """
        wheel = self._wheel
        ring = self._ring
        eoi = self._eoi
        ring_pop = ring.popleft
        ring_append = ring.append
        wheel_pop_batch = wheel.pop_batch
        hook = self._step_hook
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
                hook(event, self._now)
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
