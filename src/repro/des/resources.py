"""Capacity-limited resources for the DES engine.

:class:`Resource` models a set of interchangeable slots (a Docker node's
serialized bridge pipeline is one with a single slot): processes queue
FIFO for a slot and release it when done.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class Request(Event):
    """Pending acquisition of one resource slot.

    Usable as a context manager: ``with resource.request() as req: yield req``
    releases the slot automatically on exit.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self._users: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for one slot; the returned event fires when granted."""
        return Request(self)

    def _do_request(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._waiting.append(req)

    def release(self, req: Request) -> None:
        """Return a previously granted slot.

        Releasing a request that was never granted (still waiting) simply
        cancels it.
        """
        if req in self._users:
            self._users.remove(req)
            while self._waiting and len(self._users) < self.capacity:
                nxt = self._waiting.popleft()
                self._users.add(nxt)
                nxt.succeed(nxt)
        else:
            try:
                self._waiting.remove(req)
            except ValueError:
                raise RuntimeError("release() of a request not issued here") from None

