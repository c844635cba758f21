"""Message channels (stores) for inter-process communication.

:class:`Store` is an unbounded-or-bounded FIFO of arbitrary items; the MPI
layer's indexed :class:`~repro.mpi.matching.MessageQueue` keeps its
matching semantics and is tested against it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class Store:
    """FIFO buffer of items with blocking ``get`` and (optionally) ``put``."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[tuple[Optional[Callable[[Any], bool]], Event]] = deque()
        self._putters: deque[tuple[Any, Event]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of buffered items, oldest first."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; fires once it is in the buffer."""
        ev = Event(self.env)
        self._putters.append((item, ev))
        self._drain()
        return ev

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Remove and return the oldest item (matching ``predicate`` if given).

        With a predicate this behaves like SimPy's ``FilterStore.get``: the
        first buffered item satisfying the predicate is taken; otherwise the
        getter waits until a matching item is put.
        """
        ev = Event(self.env)
        self._getters.append((predicate, ev))
        self._drain()
        return ev

    def _match_getter(self) -> bool:
        """Try to satisfy the oldest satisfiable getter; True if any fired."""
        for gi, (pred, gev) in enumerate(self._getters):
            if pred is None:
                if self._items:
                    item = self._items.popleft()
                    del self._getters[gi]
                    gev.succeed(item)
                    return True
                continue
            for ii, item in enumerate(self._items):
                if pred(item):
                    del self._items[ii]
                    del self._getters[gi]
                    gev.succeed(item)
                    return True
        return False

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._items) < self.capacity:
                item, pev = self._putters.popleft()
                self._items.append(item)
                pev.succeed(item)
                progressed = True
            if self._match_getter():
                progressed = True
