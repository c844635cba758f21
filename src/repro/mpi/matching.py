"""Indexed MPI message matching.

:class:`MessageQueue` replaces the per-endpoint ``Store`` +
closure-predicate scan of the original communicator with buckets indexed
by ``(src, tag)`` plus wildcard getter queues, making the dominant
exact-match case O(1) amortized for both insert and match.  The
observable semantics are identical to the Store implementation (kept as
the reference in ``tests/des/store.py`` and property-tested in
``tests/mpi/test_matching.py``):

- FIFO per ``(src, tag)`` pair: messages from one source with one tag are
  received in delivery order;
- global arrival order for wildcards: an ``ANY_SOURCE``/``ANY_TAG``
  receive takes the *oldest* buffered message it matches, oldest measured
  by delivery order across all pairs;
- oldest-getter-wins: a delivered message goes to the oldest waiting
  receive that matches it, regardless of whether that receive is exact or
  wildcard.

Those three rules are exactly what the Store's oldest-getter /
oldest-item predicate scan produced; here they fall out of per-bucket
deques plus a monotone sequence number.

Design notes.  Buffered messages live only in their ``(src, tag)``
bucket — there is no secondary "all messages" list to keep coherent, so
the exact-match hot path pays a single dict lookup and deque append or
popleft.  Wildcard *gets* scan the bucket heads (each bucket is FIFO, so
its head is its oldest message); wildcard *getters* wait in small
per-kind queues that the delivery path consults only when non-empty.
Emptied buckets and getter queues are deleted eagerly so a long
simulation with round-unique collective tags does not accumulate dead
keys.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Tuple

from repro.des.events import Event
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment

#: A buffered message: (arrival sequence number, message).
_Cell = Tuple[int, Message]
#: A waiting receive: (post sequence number, event to succeed).
_Getter = Tuple[int, Event]


class MessageQueue:
    """One endpoint's incoming-message buffer with indexed matching."""

    __slots__ = (
        "env",
        "_buckets",
        "_g_exact",
        "_g_src",
        "_g_tag",
        "_g_any",
        "_seq",
        "matched_fast",
        "matched_wild",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: (src, tag) -> FIFO of buffered cells.
        self._buckets: Dict[Tuple[int, int], Deque[_Cell]] = {}
        #: (src, tag) -> FIFO of exact getters.
        self._g_exact: Dict[Tuple[int, int], Deque[_Getter]] = {}
        #: src -> FIFO of (src, ANY_TAG) getters.
        self._g_src: Dict[int, Deque[_Getter]] = {}
        #: tag -> FIFO of (ANY_SOURCE, tag) getters.
        self._g_tag: Dict[int, Deque[_Getter]] = {}
        #: FIFO of (ANY_SOURCE, ANY_TAG) getters.
        self._g_any: Deque[_Getter] = deque()
        #: Monotone counter ordering both messages and getters.
        self._seq = 0
        #: Matches resolved via the O(1) exact (src, tag) index.
        self.matched_fast = 0
        #: Matches that involved a wildcard on either side.
        self.matched_wild = 0

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    @property
    def waiting_getters(self) -> int:
        """Receives posted and not yet matched."""
        return (
            sum(len(q) for q in self._g_exact.values())
            + sum(len(q) for q in self._g_src.values())
            + sum(len(q) for q in self._g_tag.values())
            + len(self._g_any)
        )

    @property
    def items(self) -> tuple[Message, ...]:
        """Snapshot of buffered messages, oldest first (diagnostics)."""
        cells = [c for b in self._buckets.values() for c in b]
        cells.sort()
        return tuple(msg for _, msg in cells)

    # -- hot path ------------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """A message arrived: hand it to the oldest matching waiting
        receive, or buffer it.  O(1) unless wildcard getters are waiting."""
        src = msg.src
        tag = msg.tag
        key = (src, tag)
        best = None
        best_q = None
        q = self._g_exact.get(key)
        if q:
            best = q[0]
            best_q = q
        # Wildcard getter queues are consulted only when present — the
        # exact-only workload pays three falsy dict/deque checks.
        if self._g_src:
            q2 = self._g_src.get(src)
            if q2 and (best is None or q2[0][0] < best[0]):
                best = q2[0]
                best_q = q2
        if self._g_tag:
            q2 = self._g_tag.get(tag)
            if q2 and (best is None or q2[0][0] < best[0]):
                best = q2[0]
                best_q = q2
        if self._g_any and (best is None or self._g_any[0][0] < best[0]):
            best = self._g_any[0]
            best_q = self._g_any
        if best is not None:
            best_q.popleft()
            if best_q is q:
                self.matched_fast += 1
                if not q:
                    del self._g_exact[key]
            else:
                self.matched_wild += 1
                self._prune_getter_dicts()
            best[1].succeed(msg)
            return
        seq = self._seq
        self._seq = seq + 1
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
        bucket.append((seq, msg))

    def get(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event yielding the first message matching ``(src, tag)``;
        ``ANY_SOURCE`` / ``ANY_TAG`` act as wildcards."""
        ev = Event(self.env)
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (src, tag)
            bucket = self._buckets.get(key)
            if bucket:
                _, msg = bucket.popleft()
                if not bucket:
                    del self._buckets[key]
                self.matched_fast += 1
                ev.succeed(msg)
                return ev
            seq = self._seq
            self._seq = seq + 1
            q = self._g_exact.get(key)
            if q is None:
                q = self._g_exact[key] = deque()
            q.append((seq, ev))
            return ev
        # Wildcard receive: take the oldest buffered match, scanning the
        # bucket heads (each head is its pair's oldest message).
        best_key = None
        best_seq = None
        for key, bucket in self._buckets.items():
            if src != ANY_SOURCE and key[0] != src:
                continue
            if tag != ANY_TAG and key[1] != tag:
                continue
            head_seq = bucket[0][0]
            if best_seq is None or head_seq < best_seq:
                best_seq = head_seq
                best_key = key
        if best_key is not None:
            bucket = self._buckets[best_key]
            _, msg = bucket.popleft()
            if not bucket:
                del self._buckets[best_key]
            self.matched_wild += 1
            ev.succeed(msg)
            return ev
        seq = self._seq
        self._seq = seq + 1
        if src != ANY_SOURCE:
            q = self._g_src.get(src)
            if q is None:
                q = self._g_src[src] = deque()
            q.append((seq, ev))
        elif tag != ANY_TAG:
            q = self._g_tag.get(tag)
            if q is None:
                q = self._g_tag[tag] = deque()
            q.append((seq, ev))
        else:
            self._g_any.append((seq, ev))
        return ev

    def _prune_getter_dicts(self) -> None:
        """Drop emptied wildcard getter queues (cold path)."""
        for d in (self._g_src, self._g_tag):
            dead = [k for k, q in d.items() if not q]
            for k in dead:
                del d[k]
