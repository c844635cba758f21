"""Fair-share bandwidth links.

A :class:`FairShareLink` models a shared medium (a NIC, a switch uplink, a
software bridge) under *processor sharing*: at any instant the ``n`` active
transfers each progress at ``bandwidth / n``.  Completion times are
recomputed whenever a flow arrives or departs, so the model is exact for
piecewise-constant sharing — the standard fluid approximation used by
network simulators such as SimGrid.

This is the mechanism that makes contention effects *emerge* in the
reproduction: Docker's bridge path and 1 GbE TCP both become fair-share
bottlenecks once many MPI ranks communicate at once (paper Fig. 1).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional  # noqa: F401

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment

_EPS_BYTES = 1e-6


def lockstep_finish(
    when: float, wire_bytes: float, n: int, bandwidth: float
) -> Optional[float]:
    """When ``n`` equal flows of ``wire_bytes`` admitted together at
    ``when`` to an idle :class:`FairShareLink` of ``bandwidth`` all
    complete, or ``None`` when the link would not finish them at once.

    This is the link's own float arithmetic for that case: the last
    admission schedules the wake at ``fl(when + fl(wire / rate))`` with
    ``rate = fl(bandwidth / n)``, and that wake finishes every flow only
    if the drained residual ``wire − rate·(t − when)`` passes the
    completion threshold of :meth:`FairShareLink._wake_fire`; otherwise
    the link would reschedule, and ``None`` lets the caller decline
    rather than guess.  Flows of at most :data:`_EPS_BYTES` complete at
    admission.
    """
    if wire_bytes <= _EPS_BYTES:
        return when
    rate = bandwidth / n
    t = when + wire_bytes / rate
    resid = wire_bytes - rate * (t - when)
    threshold = rate * 4.0 * (math.ulp(t) if t > 0 else 1e-18)
    if threshold < _EPS_BYTES:
        threshold = _EPS_BYTES
    return t if resid <= threshold else None


class _Gate(Event):
    """A pooled latency gate for :meth:`FairShareLink.transfer_cb`.

    Plays the role of the ``Timeout`` that delays admission by the link
    latency, without allocating a ``Timeout`` plus closure per segment.
    Scheduled at the same ``(time, seq)`` the timeout would occupy, so
    heap order — and therefore simulated behaviour — is unchanged.
    """

    __slots__ = ("wire_bytes", "notify", "_cbs")

    def __init__(self, link: "FairShareLink") -> None:
        super().__init__(link.env)
        self._value = None  # never PENDING: armed manually on reuse
        self.wire_bytes = 0.0
        self.notify = None
        self._cbs = [link._on_gate]


class _Wake(Event):
    """A pooled link wake-up timer.

    Wake events outnumber every other event in a transfer-heavy
    simulation (one per admit/completion reschedule); pooling them
    removes a ``Timeout`` plus closure allocation per reschedule.  Each
    wake carries the generation it was armed with; a stale generation at
    pop time means a newer reschedule superseded it, exactly like the
    closure-captured generation it replaces — same schedule times, same
    heap positions, so simulated behaviour is bit-identical.
    """

    __slots__ = ("gen", "_cbs")

    def __init__(self, link: "FairShareLink") -> None:
        super().__init__(link.env)
        self._value = None  # never PENDING: armed manually on reuse
        self.gen = 0
        self._cbs = [link._on_wake_ev]


class FairShareLink:
    """A link of fixed capacity shared fairly among concurrent transfers.

    Parameters
    ----------
    env:
        Simulation environment.
    bandwidth:
        Capacity in **bytes per second**.
    latency:
        Fixed per-transfer latency in seconds, paid before the flow joins
        the shared medium.
    per_byte_overhead:
        Multiplier (>= 1) on the byte count; models protocol overhead such
        as TCP/IP encapsulation on a software bridge.
    name:
        Optional label for diagnostics.
    """

    def __init__(
        self,
        env: "Environment",
        bandwidth: float,
        latency: float = 0.0,
        per_byte_overhead: float = 1.0,
        name: Optional[str] = None,
    ) -> None:
        # Written so that NaN fails every check: each comparison with a
        # NaN is false.
        if not 0 < bandwidth < math.inf:
            raise ValueError(
                f"bandwidth must be positive and finite, got {bandwidth}"
            )
        if not 0 <= latency < math.inf:
            raise ValueError(f"latency must be >= 0 and finite, got {latency}")
        if not 1.0 <= per_byte_overhead < math.inf:
            raise ValueError(
                "per_byte_overhead must be >= 1 and finite, "
                f"got {per_byte_overhead}"
            )
        self.env = env
        self.bandwidth = float(bandwidth)
        #: Nominal capacity; :meth:`set_bandwidth_factor` scales
        #: :attr:`bandwidth` relative to this (fault injection).
        self.base_bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.per_byte_overhead = float(per_byte_overhead)
        self.name = name or "link"
        # Active flows as struct-of-arrays: parallel lists in admission
        # order.  ``_f_remaining[i]`` is flow i's residual wire bytes and
        # ``_f_notify[i]`` its zero-argument completion callable
        # (``Event.succeed`` for the event API, a caller callback for
        # :meth:`transfer_cb`).  The fluid drain then becomes one list
        # comprehension per settle instead of an attribute store per flow.
        self._f_remaining: list[float] = []
        self._f_notify: list = []
        self._last_update = env.now
        self._wake_gen = 0
        self._wake_pool: list[_Wake] = []
        self._gate_pool: list[_Gate] = []
        #: Smallest ``remaining`` across active flows, maintained
        #: incrementally (exact: see :meth:`_advance`); ``inf`` when idle.
        self._min_remaining = math.inf
        self.bytes_carried = 0.0
        self.peak_concurrency = 0

    # -- public API -----------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of transfers currently sharing the link."""
        return len(self._f_remaining)

    def transfer(self, nbytes: float) -> Event:
        """Start a transfer of ``nbytes``; the event fires on completion."""
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be >= 0 and finite, got {nbytes}")
        done = Event(self.env)
        wire_bytes = nbytes * self.per_byte_overhead
        if self.latency > 0:
            gate = self.env.timeout(self.latency)
            gate.callbacks.append(
                lambda _ev: self._admit(wire_bytes, done.succeed)
            )
        else:
            self._admit(wire_bytes, done.succeed)
        return done

    def transfer_cb(self, nbytes: float, notify) -> None:
        """Start a transfer of ``nbytes``; ``notify()`` is called directly
        on completion (during the completing wake-up, or immediately for
        zero-byte transfers) instead of scheduling a completion event.

        This is the delivery chain's allocation-free variant of
        :meth:`transfer`: same admission time, same completion time, one
        event pop and one :class:`Event` less per segment.  Callers own
        the ordering consequences — ``notify`` runs within the wake's
        callback, so it must not re-enter this link synchronously.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be >= 0 and finite, got {nbytes}")
        wire_bytes = nbytes * self.per_byte_overhead
        if self.latency > 0:
            pool = self._gate_pool
            gate = pool.pop() if pool else _Gate(self)
            gate.wire_bytes = wire_bytes
            gate.notify = notify
            gate.callbacks = gate._cbs
            env = self.env  # inlined env._schedule(gate, latency)
            when = env._now + self.latency
            if when <= env._now:
                env._ring.append(gate)
            else:
                env._wheel.push(when, gate)
        else:
            self._admit(wire_bytes, notify)

    def instantaneous_rate(self) -> float:
        """Per-flow rate right now (bytes/s); full bandwidth when idle."""
        n = max(1, len(self._f_remaining))
        return self.bandwidth / n

    def set_bandwidth_factor(self, factor: float) -> None:
        """Scale capacity to ``factor`` of nominal (fault injection).

        ``factor == 0`` partitions the link: in-flight flows freeze (no
        wake-up is scheduled while the rate is zero) and resume — with
        their residual byte counts intact — when a later call restores a
        positive factor.  Progress up to *now* is settled first, so the
        change is exact under piecewise-constant sharing.
        """
        if factor < 0:
            raise ValueError(f"bandwidth factor must be >= 0, got {factor}")
        new_bw = self.base_bandwidth * factor
        if new_bw == self.bandwidth:
            return
        self._advance()
        self.bandwidth = new_bw
        self._reschedule()

    # -- internals ------------------------------------------------------------
    def _admit(self, wire_bytes: float, notify) -> None:
        # _advance() inlined: admits outnumber every other link operation.
        now = self.env._now
        elapsed = now - self._last_update
        self._last_update = now
        rem = self._f_remaining
        if elapsed > 0 and rem:
            drained = (self.bandwidth / len(rem)) * elapsed
            self._f_remaining = rem = [r - drained for r in rem]
            self._min_remaining -= drained
        if wire_bytes <= _EPS_BYTES:
            notify()
            return
        rem.append(wire_bytes)
        self._f_notify.append(notify)
        if wire_bytes < self._min_remaining:
            self._min_remaining = wire_bytes
        self.bytes_carried += wire_bytes
        if len(rem) > self.peak_concurrency:
            self.peak_concurrency = len(rem)
        self._reschedule()

    def _advance(self) -> None:
        """Progress all flows from the last update time to ``env.now``."""
        now = self.env._now
        elapsed = now - self._last_update
        self._last_update = now
        rem = self._f_remaining
        if elapsed <= 0 or not rem:
            return
        drained = (self.bandwidth / len(rem)) * elapsed
        # IEEE rounding is monotone (a <= b implies fl(a-d) <= fl(b-d)),
        # so the minimum of the updated residuals is exactly the updated
        # minimum — the cache tracks the same subtraction bit for bit.
        self._f_remaining = [r - drained for r in rem]
        self._min_remaining -= drained

    def _reschedule(self) -> None:
        """Schedule a wake-up at the next flow completion."""
        self._wake_gen += 1
        rem = self._f_remaining
        if not rem:
            return
        rate = self.bandwidth / len(rem)
        if rate <= 0:
            # Partitioned link: flows freeze where they are.  The gen
            # bump above already invalidated any in-flight wake; the
            # next set_bandwidth_factor() or _admit() reschedules.
            return
        dt = self._min_remaining / rate
        if dt < 0.0:
            dt = 0.0
        pool = self._wake_pool
        wake = pool.pop() if pool else _Wake(self)
        wake.gen = self._wake_gen
        wake.callbacks = wake._cbs
        env = self.env  # inlined env._schedule(wake, dt)
        when = env._now + dt
        if when <= env._now:
            env._ring.append(wake)
        else:
            env._wheel.push(when, wake)

    def _on_gate(self, gate: _Gate) -> None:
        notify = gate.notify
        wire_bytes = gate.wire_bytes
        gate.notify = None  # drop the ref before pooling
        self._gate_pool.append(gate)
        self._admit(wire_bytes, notify)

    def _on_wake_ev(self, wake: _Wake) -> None:
        self._wake_pool.append(wake)
        if wake.gen == self._wake_gen:
            self._wake_fire()

    def _wake_fire(self) -> None:
        self._advance()
        # Completion threshold: besides the byte epsilon, any flow whose
        # residual *time* is below the clock's floating-point resolution
        # must finish now — otherwise the wake fires at an unchanged
        # timestamp, _advance() drains nothing, and the link livelocks.
        rem = self._f_remaining
        n = len(rem)
        rate = self.bandwidth / n if n else self.bandwidth
        now = self.env._now
        ulp = math.ulp(now) if now > 0 else 1e-18
        threshold = rate * 4.0 * ulp
        if threshold < _EPS_BYTES:
            threshold = _EPS_BYTES
        notify = self._f_notify
        if n == 1 and rem[0] <= threshold:
            # The common wake: the only active flow finishing.
            cb = notify[0]
            del rem[0]
            del notify[0]
            self._min_remaining = math.inf
            cb()
            self._reschedule()
            return
        if self._min_remaining <= threshold:
            keep_r: list[float] = []
            keep_n: list = []
            done: list = []
            for i, r in enumerate(rem):
                if r <= threshold:
                    done.append(notify[i])
                else:
                    keep_r.append(r)
                    keep_n.append(notify[i])
            self._f_remaining = keep_r
            self._f_notify = keep_n
            self._min_remaining = min(keep_r) if keep_r else math.inf
            # Completions are notified in admission order, matching the
            # flow-table iteration order of the original implementation.
            for cb in done:
                cb()
        self._reschedule()


class LinkStats:
    """Cumulative statistics snapshot for a :class:`FairShareLink`."""

    __slots__ = ("bytes_carried", "peak_concurrency", "active_flows")

    def __init__(self, link: FairShareLink) -> None:
        self.bytes_carried = link.bytes_carried
        self.peak_concurrency = link.peak_concurrency
        self.active_flows = link.active_flows

    def __repr__(self) -> str:  # pragma: no cover
        gib = self.bytes_carried / 2**30
        return (
            f"<LinkStats {gib:.3f} GiB carried, "
            f"peak {self.peak_concurrency} flows>"
        )
