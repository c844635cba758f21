"""Event primitives for the DES engine.

An :class:`Event` moves through three states: *pending* (created, not yet
triggered), *triggered* (given a value and scheduled on the event queue),
and *processed* (its callbacks have run).  Processes wait on events by
yielding them; the engine resumes the process with the event's value, or
throws the event's exception into the generator if the event failed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.engine import Environment

PENDING = object()
"""Sentinel for an event value that has not been set yet."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is PENDING:
            raise AttributeError("value of untriggered event is not available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env._schedule(self): succeed() runs once per message
        # delivery / receive match, making this the busiest scheduling
        # call site in the simulator.  A triggered event always fires at
        # the current instant, so it goes straight onto the now-ring — a
        # plain append, no heap entry, no sequence number.
        self.env._ring.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nobody waits, the engine raises it at the end of the
        step (unless :meth:`defused` is set).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine will not re-raise."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Unlike a bare :class:`Event`, a timeout is scheduled immediately upon
    creation and cannot be triggered manually.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # env._schedule rejects a negative, NaN or infinite delay.
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env._schedule(self, delay=self.delay)


class ConditionEvent(Event):
    """Base for events that fire when a set of child events fire.

    Subclasses define :meth:`_check` deciding when the condition holds.
    The condition's value is a dict mapping each *fired* child event to its
    value, in firing order.
    """

    __slots__ = ("events", "_results", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("all events must belong to the same environment")
        self._results: dict[Event, Any] = {}
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._results)
            return
        for ev in self.events:
            if ev.processed:
                # Already fired and processed: account for it right away.
                self._child_fired(ev)
            else:
                # Pending or triggered-but-unprocessed (e.g. a Timeout that
                # has a value from creation but has not fired yet).
                ev.callbacks.append(self._child_fired)

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            if not ev.ok:
                ev.defuse()
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.value)
            return
        self._results[ev] = ev.value
        self._remaining -= 1
        if self._check():
            self.succeed(dict(self._results))

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires when *all* child events have fired successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._remaining == 0


class JoinAll(Event):
    """Fires when every child event has fired — :class:`AllOf` without
    the per-child results dict, for callers that only need the barrier.

    The value is always ``None``.  Failure semantics mirror
    :class:`AllOf`: the first failing child fails the join with its
    exception (defusing the child); later failures are defused silently.
    Children must belong to the same environment (not validated — this
    is an engine-internal hot-path join; use :meth:`Environment.all_of`
    at API boundaries).
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        events = tuple(events)
        self._remaining = len(events)
        if not events:
            self.succeed(None)
            return
        fired = self._child_fired
        for ev in events:
            if ev.callbacks is None:
                fired(ev)
            else:
                ev.callbacks.append(fired)

    def _child_fired(self, ev: Event) -> None:
        if self._value is not PENDING:
            if not ev._ok:
                ev.defuse()
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._value = None
            self.env._ring.append(self)


class AnyOf(ConditionEvent):
    """Fires when *any* child event has fired successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return len(self._results) >= 1
