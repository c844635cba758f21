"""Per-shard circuit breaker for the self-healing cluster.

A :class:`CircuitBreaker` tracks one shard's health from the front
end's point of view and answers a single question on every new-key
admission: *ring or fallback?*  It is the standard three-state machine:

``CLOSED``
    The shard is healthy; route to the ring.
``OPEN``
    The shard just died (or is flapping); route new keys to the
    degraded fallback path until ``open_until`` passes.  The backoff
    grows with *decorrelated jitter* — ``sleep = min(cap,
    uniform(base, prev * 3))`` — drawn from a **seeded**
    ``random.Random(f"breaker:{seed}:{shard_id}")``, so a cluster
    replays the same backoff schedule on every run (determinism is a
    repo-wide invariant; see ``docs/serving.md``).
``HALF_OPEN``
    The backoff elapsed; the next new keys are routed to the ring as
    probes.  A successful worker reply closes the breaker, a new
    failure re-opens it with a larger backoff.

The breaker is pure bookkeeping: no clocks of its own (callers pass
``now``), no I/O, no metrics — the cluster translates state changes
into ``serve.shard.breaker_*`` instruments.  Orphan *replays* of
requests that were already admitted bypass the breaker entirely: the
breaker shields *new* traffic, it never drops accepted work.
"""

from __future__ import annotations

import math
import random

#: Breaker states, encoded as the integers the
#: ``serve.shard.breaker_state`` gauge reports.
CLOSED = 0
HALF_OPEN = 1
OPEN = 2

STATE_NAMES = {CLOSED: "closed", HALF_OPEN: "half-open", OPEN: "open"}


class CircuitBreaker:
    """Track one shard's health; decide ring-vs-fallback for new keys.

    Parameters
    ----------
    shard_id:
        The shard this breaker guards (part of the backoff seed, so
        shards never open/close in lockstep).
    seed:
        Cluster-level seed for the decorrelated-jitter draws.
    base_backoff / max_backoff:
        The jitter window: the first open lasts between ``base_backoff``
        and ``3 * base_backoff`` seconds (capped), each re-open draws
        from ``uniform(base, prev * 3)`` capped at ``max_backoff``.
    """

    def __init__(
        self,
        shard_id: int,
        seed: int = 0,
        base_backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> None:
        self.check_backoff(base_backoff, max_backoff)
        self.shard_id = shard_id
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self._rng = random.Random(f"breaker:{seed}:{shard_id}")
        self.state = CLOSED
        self.failures = 0
        #: Length of the current/most recent open backoff [s].
        self.backoff = 0.0
        #: Monotonic timestamp at which an OPEN breaker half-opens.
        self.open_until = 0.0

    @staticmethod
    def check_backoff(base_backoff: float, max_backoff: float) -> None:
        """Refuse a jitter window that is not ``0 < base <= max < inf``
        (written so that NaN fails every check)."""
        if not 0 < base_backoff < math.inf:
            raise ValueError("base_backoff must be finite and > 0")
        if not 0 < max_backoff < math.inf:
            raise ValueError("max_backoff must be finite and > 0")
        if max_backoff < base_backoff:
            raise ValueError("max_backoff must be >= base_backoff")

    def record_failure(self, now: float) -> None:
        """The shard died (or a probe failed): open with a fresh backoff."""
        self.failures += 1
        prev = self.backoff if self.backoff > 0 else self.base_backoff
        self.backoff = min(
            self.max_backoff, self._rng.uniform(self.base_backoff, prev * 3)
        )
        self.open_until = now + self.backoff
        self.state = OPEN

    def record_success(self) -> None:
        """A worker reply landed: the shard is healthy again."""
        if self.state != CLOSED:
            self.state = CLOSED
            self.backoff = 0.0

    def route(self, now: float) -> str:
        """``"ring"`` or ``"fallback"`` for a *new* key arriving at ``now``.

        An elapsed OPEN transitions to HALF_OPEN as a side effect (the
        caller observes the transition via :attr:`state`).
        """
        if self.state == CLOSED:
            return "ring"
        if self.state == OPEN:
            if now < self.open_until:
                return "fallback"
            self.state = HALF_OPEN
        return "ring"  # HALF_OPEN: probe the ring

    @property
    def state_name(self) -> str:
        return STATE_NAMES[self.state]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CircuitBreaker(shard={self.shard_id}, "
            f"state={self.state_name}, backoff={self.backoff:.3f})"
        )
