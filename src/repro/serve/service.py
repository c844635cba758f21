"""The single-flight study service: the one serve front end.

:class:`StudyService` is the asyncio front door over
:class:`~repro.exec.executor.ExperimentExecutor`: callers ``await
submit(spec)`` and get an :class:`~repro.core.metrics.ExperimentResult`
back, while the service collapses duplicate work and bounds the damage
of overload.  :class:`~repro.serve.cluster.StudyCluster` is this same
front end with process-shard lanes added; everything below holds for
both.

Single-flight
    Every admitted spec becomes a *flight* keyed by its
    :func:`~repro.exec.speckey.spec_key`.  A request whose key already
    has a flight in progress attaches to that flight instead of opening
    a new one, so N concurrent identical requests cost exactly one
    simulation, one cache write and N responses (all carrying the same
    result payload).  The flight is retired only after its waiters are
    resolved — a request arriving *after* completion opens a fresh
    flight (which the executor's result cache then answers cheaply).

Lanes and self-clocking batches
    A flight queues on a *lane*: the in-process executor here, a shard
    worker process in the cluster.  Each lane has at most one
    outstanding batch of at most ``max_batch`` flights.  ``submit``
    never sends inline: it schedules the lane's flush with
    ``loop.call_soon``, so every arrival of the same event-loop
    iteration shares one batch, and a landed batch flushes that lane's
    backlog at once.  Under load the batch grows by itself — no timer
    to tune.  The in-process lane runs the blocking
    :meth:`~repro.exec.executor.ExperimentExecutor.run_many` on a worker
    thread; the event loop keeps admitting.

Admission control
    At most ``max_pending`` flights may be in the building (queued or
    executing) per lane.  Request N+1 with a *new* key is rejected
    immediately with :class:`Overloaded` carrying a ``retry_after``
    hint — explicit backpressure beats an unbounded queue collapsing
    under its own latency.  Piggybacking on an existing flight is always
    admitted (it adds no work).  :meth:`drain` stops admissions and
    completes every in-flight request before returning — graceful
    shutdown never drops accepted work.

Deadlines
    ``submit(spec, deadline=seconds)`` bounds one request: its waiter
    stops waiting when the budget lapses, and a flight whose opening
    request's budget lapsed while it was still queued is never sent.
    Either way the caller gets :class:`DeadlineExceeded`.

Everything is instrumented through :mod:`repro.obs` (counters
``serve.requests`` / ``serve.dedup_hits`` / ``serve.rejected`` /
``serve.batches`` / ``serve.failures`` / ``serve.deadline_exceeded``,
gauges ``serve.queue_depth`` / ``serve.batch_size``, histogram
``serve.request_seconds``, and one ``serve.request`` span per completed
request), and mirrored in :class:`ServeStats` which additionally keeps
exact request latencies for p50/p95/p99 reporting.  See
``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.core.experiment import ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.exec.executor import ExperimentExecutor
from repro.exec.failures import FailedPoint
from repro.exec.speckey import spec_key
from repro.obs.span import Observability


class ServeError(RuntimeError):
    """Base class of everything the service can raise to a caller."""


class Overloaded(ServeError):
    """Admission refused: the lane's pending-flight queue is full.

    Attributes
    ----------
    retry_after:
        Seconds after which a retry has a realistic chance — the
        batches the lane's backlog needs, at a nominal 10 ms turnaround
        per batch.
    """

    def __init__(self, pending: int, retry_after: float) -> None:
        super().__init__(
            f"study service overloaded: {pending} flights pending; "
            f"retry after {retry_after:.3f}s"
        )
        self.pending = pending
        self.retry_after = retry_after


class ServiceClosed(ServeError):
    """Request refused: the service is draining or has shut down."""


class DeadlineExceeded(ServeError):
    """The request's deadline lapsed before its flight landed.

    Raised by ``submit(spec, deadline=...)`` — because the waiter's own
    budget ran out while it waited on a (possibly shared) flight, or
    because the flight's budget lapsed before it executed: still queued
    at the front end, or (in a cluster) queued behind batchmates inside
    a shard worker, which then cancels it.  ``deadline`` is the
    request's budget in seconds.
    """

    def __init__(self, key: str, deadline: float) -> None:
        super().__init__(
            f"request deadline of {deadline:.3f}s exceeded "
            f"(key {key[:12]}…)"
        )
        self.key = key
        self.deadline = deadline


class RequestFailed(ServeError):
    """The simulation behind a request failed deterministically.

    Wraps the :class:`~repro.exec.failures.FailedPoint` (or the raw
    executor exception message) so every waiter of the flight sees the
    same diagnosis.
    """

    def __init__(self, point: Optional[FailedPoint], detail: str) -> None:
        super().__init__(detail)
        self.point = point


@dataclass
class ServeStats:
    """Cumulative accounting of one front end's traffic."""

    requests: int = 0
    #: Requests that attached to an already-in-flight identical spec.
    dedup_hits: int = 0
    rejected: int = 0
    batches: int = 0
    #: Flights handed to a lane (= unique specs actually driven).
    flights: int = 0
    failures: int = 0
    deadline_exceeded: int = 0
    #: Simulations executed, in-memory L1 hits and on-disk L2 hits,
    #: folded from every lane's per-batch executor deltas.
    executed: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    #: Per-request wall-clock latencies [s], completed requests only.
    latencies: list = field(default_factory=list)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the completed-request latencies.

        ``p`` in [0, 100]; returns 0.0 when nothing has completed yet.
        """
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile out of range: {p}")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without math
        return ordered[int(rank) - 1]

    def latency_summary(self) -> dict:
        return {
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def as_dict(self) -> dict:
        """Every counter, plus the latency summary in place of the raw
        latencies."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "latencies"
        }
        out["latency"] = self.latency_summary()
        return out


class _Flight:
    """One admitted unique spec: what lanes batch, run and replay."""

    __slots__ = (
        "key", "spec", "future", "waiters", "deadline", "deadline_s",
        "shard", "lane", "replays",
    )

    def __init__(self, key, spec, future, deadline_s, t_start, shard):
        self.key = key
        self.spec = spec
        self.future = future
        self.waiters = 1
        #: The *opening* request's budget [s] and its monotonic expiry
        #: (None: no deadline); joiners enforce their own budget
        #: waiter-side.
        self.deadline_s = deadline_s
        self.deadline = None if deadline_s is None else t_start + deadline_s
        #: The cluster's shard for the key (None in-process), and the
        #: lane the flight is queued or running on.
        self.shard = shard
        self.lane = None
        #: Times a shard death orphaned this flight and it was replayed.
        self.replays = 0


class _LocalLane:
    """The in-process lane: ``executor.run_many`` on a worker thread.

    The lane contract the front end batches onto: a FIFO ``queue`` of
    flights, the ``inflight`` count admission bounds (queued plus
    running), the one outstanding ``batch`` (or None), ``alive`` (may a
    batch be sent now), and ``send(service, batch, now)``, which ends in
    exactly one ``service._land(lane, outcomes, delta)``.
    """

    alive = True

    def __init__(self, executor) -> None:
        self.executor = executor
        self.queue: deque = deque()
        self.inflight = 0
        self.batch: Optional[list] = None

    def send(self, service: "StudyService", batch: list, now: float) -> None:
        # run_many writes into a fresh Observability, merged back on the
        # loop thread once the batch lands — no cross-thread mutation.
        specs = [f.spec for f in batch]
        obs = Observability()
        ex = self.executor

        def run():
            before = ex.stats.snapshot()
            return ex.run_many(specs, obs=obs), ex.stats.delta(before)

        def landed(fut) -> None:
            try:
                outcomes, delta = fut.result()
            except Exception as exc:  # fail-fast executor or infra error
                detail = f"{type(exc).__name__}: {exc}"
                failed = RequestFailed(
                    None, f"batch execution failed: {detail}"
                )
                service._land(self, [(f, failed) for f in batch])
                return
            service.obs.merge(obs)
            service._land(self, zip(batch, outcomes), delta)

        loop = asyncio.get_running_loop()
        loop.run_in_executor(None, run).add_done_callback(landed)


class StudyService:
    """Serve experiment requests over a shared executor.

    Parameters
    ----------
    executor:
        The :class:`ExperimentExecutor` driving the actual simulations.
        Defaults to a serial, cached, ``keep_going`` executor —
        ``keep_going`` matters: one failing spec must annotate its own
        flight, not abort its batchmates.
    max_pending:
        Admission bound on flights in the building (queued + executing)
        per lane.
    max_batch:
        Hard cap on flights per batch (one executor submission).
    obs:
        Metrics/span sink; a fresh :class:`Observability` by default
        (exposed as :attr:`obs` either way).
    """

    def __init__(
        self,
        executor: Optional[ExperimentExecutor] = None,
        max_pending: int = 64,
        max_batch: int = 16,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.executor = executor or ExperimentExecutor(
            workers=1, cache=True, keep_going=True
        )
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.obs = obs or Observability()
        self.stats = ServeStats()
        self._lane = _LocalLane(self.executor)
        #: key -> flight, in admission order, until the flight settles.
        self._inflight: dict[str, _Flight] = {}
        self._idle: Optional[asyncio.Event] = None
        self._draining = False
        self._closed = False
        self._t0 = time.monotonic()

    # -- lifecycle -----------------------------------------------------------
    async def __aenter__(self) -> "StudyService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    @property
    def pending(self) -> int:
        """Flights currently in the building (queued + executing)."""
        return len(self._inflight)

    async def drain(self) -> None:
        """Refuse new admissions, finish every in-flight request.

        Idempotent; after it returns, :meth:`submit` raises
        :class:`ServiceClosed` and all previously admitted futures are
        resolved.
        """
        self._draining = True
        while self._inflight:
            self._idle = asyncio.Event()
            await self._idle.wait()
        self._closed = True

    # -- the request path ----------------------------------------------------
    async def submit(
        self, spec: ExperimentSpec, deadline: Optional[float] = None
    ) -> ExperimentResult:
        """Serve one request; resolves when its flight lands.

        ``deadline`` is this request's wall-clock budget in seconds.  A
        joiner's budget never cancels the shared flight: the flight
        carries its *opening* request's deadline, and the result is
        still computed (and cached) for the other waiters.

        Raises :class:`Overloaded` (carrying ``retry_after``) when
        admission control refuses the request, :class:`ServiceClosed`
        after :meth:`drain`, :class:`DeadlineExceeded` when the budget
        lapses first, and :class:`RequestFailed` when the simulation
        itself failed.
        """
        t_start = time.monotonic()
        if deadline is not None and not 0 < deadline < math.inf:
            raise ValueError("deadline must be a finite number of seconds > 0")
        self.stats.requests += 1
        self.obs.metrics.counter("serve.requests").inc()
        if self._draining or self._closed:
            raise ServiceClosed("study service is draining; not admitting")
        key = spec_key(spec)
        flight = self._inflight.get(key)
        deduped = flight is not None
        if deduped:
            flight.waiters += 1
            self.stats.dedup_hits += 1
            self.obs.metrics.counter("serve.dedup_hits").inc()
        else:
            lane, shard = self._route(key)
            if lane.inflight >= self.max_pending:
                self.stats.rejected += 1
                self.obs.metrics.counter("serve.rejected").inc()
                backlog_batches = -(-lane.inflight // self.max_batch)
                raise Overloaded(
                    lane.inflight, 0.01 * max(1, backlog_batches)
                )
            flight = _Flight(
                key, spec, asyncio.get_running_loop().create_future(),
                deadline, t_start, shard,
            )
            self._inflight[key] = flight
            self._enqueue(flight, lane)
        attrs = {}
        if flight.shard is not None:  # the cluster's traffic balance
            self.stats.requests_by_shard[flight.shard] += 1
            attrs["shard"] = flight.shard
        try:
            # shield: one waiter giving up must not cancel the shared
            # flight — the other waiters (and the cache write) want it.
            waiting = asyncio.shield(flight.future)
            if deadline is not None:
                budget = t_start + deadline - time.monotonic()
                waiting = asyncio.wait_for(waiting, max(0.0, budget))
            outcome = await waiting
        except (asyncio.TimeoutError, DeadlineExceeded) as exc:
            self.stats.deadline_exceeded += 1
            self.obs.metrics.counter("serve.deadline_exceeded").inc()
            if isinstance(exc, DeadlineExceeded):
                raise
            raise DeadlineExceeded(key, deadline) from None
        except ServeError:  # RequestFailed
            self.stats.failures += 1
            self.obs.metrics.counter("serve.failures").inc()
            raise
        latency = time.monotonic() - t_start
        self.stats.latencies.append(latency)
        self.obs.metrics.histogram("serve.request_seconds").observe(latency)
        self.obs.add_span(
            "serve.request", "serve",
            t_start - self._t0, t_start - self._t0 + latency,
            track="serve", key=key, deduped=deduped, **attrs,
        )
        return outcome

    def _route(self, key: str):
        """``(lane, shard)`` for a new key's flight: the one local lane,
        no shard."""
        return self._lane, None

    # -- lanes ---------------------------------------------------------------
    def _enqueue(self, flight: _Flight, lane) -> None:
        """Queue ``flight`` on ``lane`` (moving it off its old lane, if
        any) and schedule the lane's flush for the end of this loop
        iteration."""
        if flight.lane is not None:
            flight.lane.inflight -= 1
        flight.lane = lane
        lane.inflight += 1
        lane.queue.append(flight)
        self.obs.metrics.gauge("serve.queue_depth").set(len(self._inflight))
        asyncio.get_running_loop().call_soon(self._flush, lane)

    def _flush(self, lane) -> None:
        """Send the lane's next batch unless one is outstanding."""
        if lane.batch is not None or not lane.alive:
            return
        now = time.monotonic()
        batch = []
        while lane.queue and len(batch) < self.max_batch:
            flight = lane.queue.popleft()
            if flight.deadline is not None and now >= flight.deadline:
                # The budget lapsed while the flight queued: never send.
                self._settle(
                    flight, DeadlineExceeded(flight.key, flight.deadline_s)
                )
            else:
                batch.append(flight)
        if batch:
            lane.batch = batch
            self.stats.batches += 1
            self.stats.flights += len(batch)
            self.obs.metrics.counter("serve.batches").inc()
            self.obs.metrics.gauge("serve.batch_size").set(len(batch))
            lane.send(self, batch, now)

    def _land(self, lane, outcomes, delta: Optional[dict] = None) -> None:
        """A lane's batch is back: fold its executor delta, settle each
        ``(flight, outcome)``, then send the lane's backlog."""
        if delta is not None:
            self.stats.executed += delta["executed"]
            self.stats.l1_hits += delta["l1_hits"]
            self.stats.l2_hits += delta["l2_hits"]
        lane.batch = None
        for flight, outcome in outcomes:
            self._settle(flight, outcome)
        self._flush(lane)

    def _settle(self, flight: _Flight, outcome) -> None:
        """Resolve ``flight`` with its outcome — a result, a
        :class:`FailedPoint` or a :class:`ServeError` — and retire it:
        later identical requests open a fresh flight."""
        if isinstance(outcome, FailedPoint):
            outcome = RequestFailed(
                outcome,
                f"request {flight.spec.name!r} failed: "
                f"{outcome.error_type}: {outcome.error}",
            )
        if flight.future.done():
            pass
        elif isinstance(outcome, ServeError):
            flight.future.set_exception(outcome)
            # Pre-retrieve: a waiter whose own deadline lapsed abandoned
            # the future, and an unretrieved exception is logged as a
            # leak; waiters still awaiting re-raise as usual.
            flight.future.exception()
        else:
            flight.future.set_result(outcome)
        self._inflight.pop(flight.key, None)
        flight.lane.inflight -= 1
        self.obs.metrics.gauge("serve.queue_depth").set(len(self._inflight))
        if not self._inflight and self._idle is not None:
            self._idle.set()
