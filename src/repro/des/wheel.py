"""The future-event list: a ``heapq`` of ``(time, seq, payload)`` entries.

Events due strictly after the current instant live here; events due at
the current instant go to the engine's now-ring instead (see
:class:`repro.des.engine.Environment`).  ``seq`` is a push counter, so
entries pop in ascending ``(time, seq)`` order: equal times pop first in,
first out, and the payload itself is never compared.  That ordering is
the whole contract every simulation's determinism rests on; it is
property-tested against a sorted-list reference in
``tests/des/test_wheel.py``.

``heappush``/``heappop`` and the tuple comparisons they make run in C.
A calendar queue is O(1) per operation on paper, but in CPython its
bucket arithmetic runs as bytecode and loses to the heap's C-speed
O(log n) at the queue depths these simulations reach.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any, Callable


class EventWheel:
    """Future-event list ordered by ``(time, push order)``."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = count()

    def __len__(self) -> int:  # truthiness too: empty means false
        return len(self._heap)

    def push(self, when: float, payload: Any) -> None:
        """File ``payload`` at time ``when``, after every entry already
        filed at the same time."""
        heappush(self._heap, (when, next(self._seq), payload))

    def pop(self) -> tuple[float, Any]:
        """Remove and return ``(when, payload)`` of the earliest entry;
        :class:`IndexError` when empty."""
        when, _seq, payload = heappop(self._heap)
        return when, payload

    def pop_batch(self, out_append: Callable[[Any], None]) -> float:
        """Pop every entry bearing the earliest time, feed their payloads
        to ``out_append`` in push order, and return that time;
        :class:`IndexError` when empty.

        The engine's inner-loop primitive: one call moves a whole
        simultaneous-event group onto the now-ring.
        """
        heap = self._heap
        when, _seq, payload = heappop(heap)
        out_append(payload)
        while heap and heap[0][0] == when:
            out_append(heappop(heap)[2])
        return when

    def peek_time(self) -> float:
        """Earliest queued time, or ``inf`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else inf
