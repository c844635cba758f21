"""The sharded study cluster: the study service plus process-shard lanes.

:class:`StudyCluster` is :class:`~repro.serve.service.StudyService` —
the same single-flight, admission, deadline, stats and drain front end,
the same self-clocking batches — with N *shard lanes* added.  Each shard
is one OS worker process owning its own
:class:`~repro.exec.executor.ExperimentExecutor` with an in-memory L1
memo (``l1=True``) and, optionally, the shared on-disk
:class:`~repro.exec.cache.ResultCache` as L2.  The service's own
in-process lane becomes the *fallback* lane.

- **Placement.** A :class:`~repro.serve.router.ShardRouter`
  consistent-hashes each request's :func:`~repro.exec.speckey.spec_key`
  to its *ring owner*.  The first flight of a key whose ring owner is
  healthy goes to the healthy shard with the fewest flights in the
  building, the owner winning ties; the front end records that shard,
  and every later flight of the key goes there.  A key whose ring owner
  is unhealthy takes the owner's path (below) and is not recorded.
- **Exactly-once execution.** Single-flight belongs to the front end:
  concurrent duplicates join the in-flight request (no second message
  crosses the pipe).  Later repeats go to the shard the key was placed
  on and hit that worker's L1 — or, with ``cache=True``, the shared L2
  — so a spec executes at most once per cluster lifetime, no matter
  which of millions of callers asks, how often, or when.
- **Bounded admission** is per lane: at most ``max_pending`` unique
  specs in flight per shard (and on the fallback lane).  A new key is
  refused only when every healthy shard is full; a placed key is
  refused while its own shard is full.
- **Self-healing** (``self_heal=True``, the default).  A supervisor
  task detects dead workers two ways — pipe EOF for a process that
  exited, and missed heartbeats (a ``ping``/``pong`` RPC on the same
  duplex pipe) for a *wedged* process that is alive but unresponsive,
  which is then killed.  Dead workers are respawned with a fresh
  executor (placement never moves a key, so every key goes back to the
  original shard id), and the in-flight requests that died with the old
  worker are **replayed** transparently: responses stay byte-identical
  because replayed keys hit the shared L2 cache or re-execute
  deterministically.  While a shard is down or flapping, its per-shard
  circuit breaker (:mod:`repro.serve.breaker`: closed → open →
  half-open with seeded decorrelated-jitter backoff) degrades
  gracefully — new keys for that shard take the fallback lane, an
  in-process executor backed by the same L2 — and traffic recovers to
  the ring when the breaker half-opens.  With ``self_heal=False`` the
  cluster keeps the original crash-containment contract: a dying worker
  fails only *its* requests with :class:`ShardDown` and stays down.
- **Deadlines** work as in the service; in addition the remaining
  budget travels with the batch, so the worker cancels a spec whose
  budget lapsed while earlier batchmates executed (worker-side
  cancellation).

Transport is a duplex :func:`multiprocessing.Pipe` per worker: specs
travel as pickles, results return as the same canonical JSON the result
cache writes — so a response is byte-identical whether it was computed
here, replayed from L1/L2, served by the fallback lane, or served by a
single-process :class:`StudyService` (the parity and chaos gates in
``benchmarks/bench_serve_throughput.py`` hold the cluster to that).

Worker-side accounting comes back two ways: exact per-batch execution
deltas piggyback on every ``done`` message (so a worker killed later
never takes already-reported counts with it), and the worker's
``serve.shard.*`` metrics registry is folded into the front end's
:class:`~repro.obs.span.Observability` at drain.  Supervision adds
``serve.shard.respawns`` / ``heartbeat_misses`` / ``replayed`` /
``breaker_opens`` / ``breaker_closes`` counters, the
``serve.shard.breaker_state`` gauge and ``serve.shard.respawn`` /
``serve.shard.breaker`` spans.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.experiment import ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.exec.executor import ExperimentExecutor
from repro.exec.failures import FailedPoint
# perfbench's probe patches spec_key in this module's namespace.
from repro.exec.speckey import spec_key  # noqa: F401
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Observability
from repro.serve import breaker as breaker_mod
from repro.serve.breaker import CircuitBreaker
from repro.serve.router import ShardRouter
from repro.serve.service import (
    DeadlineExceeded,
    ServeError,
    ServeStats,
    ServiceClosed,
    StudyService,
    _LocalLane,
)


class ShardDown(ServeError):
    """The shard serving this request's key has died (``self_heal=False``
    clusters only — a self-healing cluster replays or degrades instead
    of surfacing this to callers)."""

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(f"shard {shard} is down: {detail}")
        self.shard = shard


@dataclass
class ShardConfig:
    """Per-worker executor configuration (pickled to the worker)."""

    shard_id: int
    workers: int = 1
    cache: bool = False
    cache_dir: str = ".repro-cache"
    l1: bool = True


@dataclass
class ClusterStats(ServeStats):
    """Front-end accounting plus the per-shard and supervision view.

    The inherited totals mean the same thing as on
    :class:`~repro.serve.service.ServeStats` (``executed`` / ``l1_hits``
    / ``l2_hits`` sum the shard workers and the fallback lane); the
    ``*_by_shard`` lists are the placement's balance, and the rest tracks
    the self-healing machinery.
    """

    shards: int = 0
    #: Requests routed to each shard (dedupe joins included — this is
    #: the traffic balance placement produced).
    requests_by_shard: list = field(default_factory=list)
    #: Unique in-flight specs actually sent to each worker (replayed
    #: flights count once per send).
    flights_by_shard: list = field(default_factory=list)
    shard_crashes: int = 0
    #: Workers respawned by the supervisor.
    respawns: int = 0
    #: In-flight requests orphaned by a death and replayed on the ring.
    replayed: int = 0
    #: Flights served by the front-end fallback lane.
    fallbacks: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    heartbeat_misses: int = 0

    def balance_ratio(self) -> float:
        """max/min requests per shard (``inf`` if a shard saw none)."""
        if not self.requests_by_shard:
            return 1.0
        low = min(self.requests_by_shard)
        if low == 0:
            return float("inf")
        return max(self.requests_by_shard) / low

    def as_dict(self) -> dict:
        """The service's view plus ``balance_ratio`` — ``None`` (JSON
        ``null``) when a shard saw no requests, since strict JSON has
        no infinity."""
        ratio = self.balance_ratio()
        return {
            **super().as_dict(),
            "balance_ratio": ratio if math.isfinite(ratio) else None,
        }


# -- the worker process ------------------------------------------------------

def _worker_main(conn, cfg: ShardConfig) -> None:
    """Shard worker: recv batches, run them, send outcomes, repeat.

    Protocol (parent → worker): ``("run", [(seq, spec, remaining), …])``
    where ``seq`` is the flight's index in the batch and ``remaining``
    its leftover deadline budget in seconds (or ``None``);
    ``("ping", token)`` answered with ``("pong", token)`` — between
    batches *and* between execution chunks mid-batch, so a busy worker
    stays visibly alive while a wedged (stopped) process, which can
    answer nothing, does not;
    ``("shutdown",)`` answered with ``("bye", metrics_dump,
    exec_stats)``.  Every ``("done", replies, delta)`` carries the
    batch's exact executor-stat delta so the parent's accounting never
    depends on the worker surviving to say goodbye.  Results travel as
    canonical JSON — the cache's wire format — so the parent
    reconstructs exactly what a local executor would have returned.
    """
    executor = ExperimentExecutor(
        workers=cfg.workers,
        cache=cfg.cache,
        cache_dir=cfg.cache_dir,
        l1=cfg.l1,
        keep_going=True,
    )
    metrics = MetricsRegistry()
    requests_c = metrics.counter("serve.shard.requests")
    batches_c = metrics.counter("serve.shard.batches")
    executed_c = metrics.counter("serve.shard.executed")
    l1_c = metrics.counter("serve.shard.l1_hits")
    l2_c = metrics.counter("serve.shard.l2_hits")
    failures_c = metrics.counter("serve.shard.failures")
    deadline_c = metrics.counter("serve.shard.deadline_cancelled")
    batch_g = metrics.gauge("serve.shard.batch_size")

    def encode(seq, outcome):
        if isinstance(outcome, FailedPoint):
            failures_c.inc()
            return (seq, "failed", outcome)
        blob = json.dumps(outcome.to_json_dict(), sort_keys=True)
        return (seq, "result", blob)

    backlog = deque()

    def answer_pings():
        """Drain queued liveness probes between execution chunks.

        A batch can legitimately run for many heartbeat intervals, so a
        worker that only read the pipe between batches would look
        wedged to the supervisor while merely busy.  Answering pings at
        chunk boundaries bounds unresponsiveness to one chunk's
        runtime — a SIGSTOPped process still answers nothing, which is
        exactly the signal wedge detection needs.  Non-ping messages
        surfaced by the drain keep their order in the backlog.
        """
        while conn.poll(0):
            probe = conn.recv()
            if probe[0] == "ping":
                conn.send(("pong", probe[1]))
            else:
                backlog.append(probe)

    try:
        while True:
            try:
                msg = backlog.popleft() if backlog else conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            if msg[0] == "ping":
                conn.send(("pong", msg[1]))
                continue
            if msg[0] == "shutdown":
                conn.send(
                    ("bye", metrics.to_dict(), executor.stats.as_dict())
                )
                return
            if msg[0] != "run":  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
            batch = msg[1]
            requests_c.inc(len(batch))
            batches_c.inc()
            batch_g.set(len(batch))
            t_recv = time.monotonic()
            before = executor.stats.snapshot()
            replies = []
            # Chunked execution: one executor drive per `workers` specs,
            # answering heartbeats at every boundary.  Deadline budgets
            # are checked per spec, so a budget that lapses while
            # earlier batchmates execute cancels the spec instead of
            # running it.
            step = max(1, cfg.workers)
            for start in range(0, len(batch), step):
                answer_pings()
                chunk = []
                for seq, spec, remaining in batch[start:start + step]:
                    if (
                        remaining is not None
                        and time.monotonic() - t_recv >= remaining
                    ):
                        deadline_c.inc()
                        replies.append((seq, "deadline", None))
                    else:
                        chunk.append((seq, spec))
                if chunk:
                    outcomes = executor.run_many([s for _, s in chunk])
                    for (seq, _), outcome in zip(chunk, outcomes):
                        replies.append(encode(seq, outcome))
            delta = executor.stats.delta(before)
            executed_c.inc(delta["executed"])
            l1_c.inc(delta["l1_hits"])
            l2_c.inc(delta["l2_hits"])
            conn.send(("done", replies, delta))
    except Exception as exc:  # infra failure: tell the parent, then die
        try:
            conn.send(("crash", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):  # pragma: no cover
            pass
        raise


class _Shard:
    """One worker process as a lane of the front end (see
    :class:`~repro.serve.service._LocalLane` for the lane contract),
    plus its pipe, reader generation, heartbeat and breaker state."""

    __slots__ = (
        "id", "proc", "conn", "queue", "batch", "inflight", "alive",
        "bye", "bye_payload", "gen", "awaiting_pong", "missed",
        "respawns", "breaker",
    )

    def __init__(self, shard_id: int, breaker: CircuitBreaker) -> None:
        self.id = shard_id
        self.queue: deque = deque()
        self.inflight = 0
        #: Process generation.  Bumped on every death so messages (and
        #: the EOF) from a superseded reader thread are discarded
        #: instead of being mistaken for the respawned worker's — the
        #: guard against double-settling a replayed flight.
        self.gen = 0
        self.respawns = 0
        self.breaker = breaker

    def reset(self, proc, conn) -> None:
        """Point this shard at a freshly (re)spawned worker process;
        orphans already requeued by a death are its backlog."""
        self.proc = proc
        self.conn = conn
        self.batch: Optional[list] = None
        self.alive = True
        self.bye = asyncio.Event()
        self.bye_payload = None
        self.awaiting_pong = False
        self.missed = 0

    def send(self, cluster: "StudyCluster", batch: list, now: float) -> None:
        cluster.stats.flights_by_shard[self.id] += len(batch)
        wire = [
            (i, f.spec, None if f.deadline is None else f.deadline - now)
            for i, f in enumerate(batch)
        ]
        try:
            self.conn.send(("run", wire))
        except (OSError, ValueError):
            # The batch's flights are still on this lane: the death
            # path replays or fails them.
            cluster._shard_died(self.id, "pipe write failed")


def _healthy(shard: _Shard) -> bool:
    """May new keys be placed on ``shard``: alive, breaker closed."""
    return shard.alive and shard.breaker.state == breaker_mod.CLOSED


class _FallbackLane(_LocalLane):
    """The front end's in-process lane, taken by keys whose shard is
    down past its respawn budget or behind an open breaker."""

    def send(self, cluster: "StudyCluster", batch: list, now: float) -> None:
        cluster.stats.fallbacks += len(batch)
        cluster.obs.metrics.counter("serve.fallback_requests").inc(len(batch))
        super().send(cluster, batch, now)


class StudyCluster(StudyService):
    """Serve experiment requests across N shard worker processes.

    The request API is :class:`~repro.serve.service.StudyService`'s
    (``await submit(spec, deadline=None)`` → :class:`ExperimentResult`,
    raising :class:`Overloaded` / :class:`ServiceClosed` /
    :class:`RequestFailed` / :class:`DeadlineExceeded` plus — with
    ``self_heal=False`` — the cluster-specific :class:`ShardDown`), so
    load generators, the CLI and the parity tests drive either
    interchangeably.

    Parameters
    ----------
    shards:
        Worker process count (ignored when ``router`` is given).
    router:
        The consistent-hash router that names each key's ring owner
        (the tie-break of placement); a default
        :class:`~repro.serve.router.ShardRouter` over ``shards`` if
        omitted.
    workers_per_shard:
        Executor processes *inside* each worker (default 1: the worker
        itself is the parallelism unit).
    cache / cache_dir:
        Give every worker (and the fallback lane) the shared on-disk
        result cache as L2.  Strongly recommended with ``self_heal``:
        it is what makes replays and degraded-path responses cost a
        cache hit instead of a re-execution.
    l1:
        Per-worker in-memory result memo (default on — it is what makes
        repeats of a served spec cost one dict lookup).
    max_pending:
        Admission bound on unique in-flight specs *per shard* (the
        fallback lane is bounded by the same number).
    max_batch:
        Max specs per pipe message / executor submission.
    obs:
        Front-end metrics/span sink; worker-side ``serve.shard.*``
        metrics are folded in at drain.
    self_heal:
        Supervise, respawn and replay (default).  ``False`` restores
        the original contract: crashes surface as :class:`ShardDown`
        and the shard stays down.
    heartbeat_interval / heartbeat_misses:
        Supervisor tick in seconds, and consecutive unanswered ticks
        before a live-but-silent worker is declared wedged and killed.
        The product is the wedge-detection budget — keep it above the
        longest legitimate execution chunk (a worker answers pings
        between chunks of a batch).
    max_respawns:
        Per-shard respawn budget (``None`` = unlimited).  A shard past
        its budget serves its keys through the fallback lane forever.
    max_flight_replays:
        Times one flight may die with a worker and be replayed on the
        ring before it is routed to the fallback lane instead — the
        guard against a poison spec that kills every worker it meets.
    breaker_seed / breaker_base_backoff / breaker_max_backoff:
        Deterministic decorrelated-jitter backoff of the per-shard
        circuit breakers (:mod:`repro.serve.breaker`).
    """

    def __init__(
        self,
        shards: int = 2,
        router: Optional[ShardRouter] = None,
        workers_per_shard: int = 1,
        cache: bool = False,
        cache_dir: str = ".repro-cache",
        l1: bool = True,
        max_pending: int = 64,
        max_batch: int = 16,
        obs: Optional[Observability] = None,
        self_heal: bool = True,
        heartbeat_interval: float = 0.5,
        heartbeat_misses: int = 6,
        max_respawns: Optional[int] = 8,
        max_flight_replays: int = 2,
        breaker_seed: int = 0,
        breaker_base_backoff: float = 0.05,
        breaker_max_backoff: float = 2.0,
    ) -> None:
        # The service's executor backs the fallback lane: it shares the
        # workers' L2 (and key space), so the degraded path changes
        # latency, never bytes.  Building it spawns nothing.
        super().__init__(
            executor=ExperimentExecutor(
                workers=1, cache=cache, cache_dir=str(cache_dir),
                l1=True, keep_going=True,
            ),
            max_pending=max_pending,
            max_batch=max_batch,
            obs=obs,
        )
        self._lane = _FallbackLane(self.executor)
        self.router = router or ShardRouter(shards)
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if max_respawns is not None and max_respawns < 0:
            raise ValueError("max_respawns must be >= 0 (or None)")
        if max_flight_replays < 0:
            raise ValueError("max_flight_replays must be >= 0")
        self.workers_per_shard = workers_per_shard
        self.cache = cache
        self.cache_dir = cache_dir
        self.l1 = l1
        self.self_heal = self_heal
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.max_respawns = max_respawns
        self.max_flight_replays = max_flight_replays
        self._breaker_cfg = (
            breaker_seed, breaker_base_backoff, breaker_max_backoff
        )
        n = self.router.n_shards
        self.stats = ClusterStats(
            shards=n, requests_by_shard=[0] * n, flights_by_shard=[0] * n
        )
        self._shards: list[_Shard] = []
        #: spec key -> the shard id it was placed on, for the cluster's
        #: lifetime (respawns keep shard ids).
        self._placement: dict[str, int] = {}
        self._ping_tokens = itertools.count()
        self._ctx = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    async def __aenter__(self) -> "StudyCluster":
        await self.start()
        return self

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    async def start(self) -> "StudyCluster":
        """Spawn the worker processes, their pipe readers, and — with
        ``self_heal`` — the supervisor task."""
        if self._started:
            return self
        if self._closed:
            raise ServiceClosed("cluster has been drained")
        self._loop = asyncio.get_running_loop()
        # fork is cheap (workers inherit the warm interpreter) and is
        # the Linux default; fall back to spawn where fork is absent.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        seed, base, cap = self._breaker_cfg
        for shard_id in range(self.n_shards):
            shard = _Shard(
                shard_id,
                CircuitBreaker(
                    shard_id, seed=seed, base_backoff=base, max_backoff=cap
                ),
            )
            shard.reset(*self._spawn_proc(shard_id))
            self._shards.append(shard)
        # Readers start only after every fork: forking a multi-threaded
        # process is where the dragons live.  (A later *respawn* does
        # fork with readers running — the child execs nothing but
        # _worker_main and touches no parent locks, the same bargain
        # ProcessPoolExecutor makes on POSIX.)
        for shard in self._shards:
            self._start_reader(shard)
        self._started = True
        self.obs.metrics.gauge("serve.cluster.shards").set(self.n_shards)
        if self.self_heal:
            self._supervisor = self._loop.create_task(
                self._supervise(), name="repro-serve-supervisor"
            )
        return self

    def _spawn_proc(self, shard_id: int):
        cfg = ShardConfig(
            shard_id=shard_id,
            workers=self.workers_per_shard,
            cache=self.cache,
            cache_dir=str(self.cache_dir),
            l1=self.l1,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, cfg),
            daemon=True,
            name=f"repro-serve-shard-{shard_id}",
        )
        proc.start()
        # Parent's copy of the child end must close *before* the next
        # fork, so no sibling holds a stray write end open (that would
        # defeat EOF-based crash detection).
        child_conn.close()
        return proc, parent_conn

    def _start_reader(self, shard: _Shard) -> None:
        threading.Thread(
            target=self._reader,
            args=(shard.id, shard.conn, shard.gen),
            daemon=True,
            name=f"repro-serve-reader-{shard.id}.{shard.gen}",
        ).start()

    async def drain(self) -> None:
        """Complete all in-flight work, then retire every worker.

        Idempotent.  The supervisor keeps running while flights drain —
        a shard dying *mid-drain* is still respawned and its orphans
        replayed, so accepted work is never dropped — and is cancelled
        only once the building is empty.  Collects each worker's
        ``serve.shard.*`` metrics into :attr:`obs` before the processes
        exit; afterwards :meth:`submit` raises :class:`ServiceClosed`.
        """
        if self._closed:
            return
        await super().drain()
        if not self._started:
            return
        if self._supervisor is not None:
            # All work is settled; stop supervising so a worker dying on
            # the way out is contained, not respawned.
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        for shard in self._shards:
            if shard.alive:
                try:
                    shard.conn.send(("shutdown",))
                except (OSError, ValueError):
                    shard.alive = False
                    shard.bye.set()
        await asyncio.gather(*(self._collect_bye(s) for s in self._shards))
        for shard in self._shards:
            await asyncio.get_running_loop().run_in_executor(
                None, shard.proc.join, 10.0
            )
            if shard.proc.is_alive():  # pragma: no cover
                shard.proc.terminate()
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._finalise_stats()

    async def _collect_bye(self, shard: _Shard) -> None:
        if not shard.alive:
            return
        try:
            await asyncio.wait_for(shard.bye.wait(), timeout=60.0)
        except asyncio.TimeoutError:  # pragma: no cover
            shard.alive = False
            shard.proc.terminate()

    def _finalise_stats(self) -> None:
        load = self.stats.requests_by_shard
        self.obs.metrics.gauge("serve.cluster.load_max").set(
            max(load) if load else 0
        )
        self.obs.metrics.gauge("serve.cluster.load_min").set(
            min(load) if load else 0
        )
        for shard in self._shards:
            # Execution counts already accumulated live from the
            # per-batch done-deltas; the bye only contributes the
            # worker's metric registry.
            if shard.bye_payload is not None:
                self.obs.metrics.merge_dict(shard.bye_payload[0])

    # -- chaos hooks ---------------------------------------------------------
    def worker_pid(self, shard_id: int) -> Optional[int]:
        """The shard's current worker pid (changes across respawns)."""
        return self._shards[shard_id].proc.pid

    def kill_worker(self, shard_id: int) -> None:
        """Chaos hook: SIGKILL the shard's worker (``kill -9``).

        The supervisor sees the pipe EOF, replays the shard's in-flight
        requests and respawns the worker.  Safe to call on an
        already-dead shard.
        """
        try:
            self._shards[shard_id].proc.kill()
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            pass

    def wedge_worker(self, shard_id: int) -> None:
        """Chaos hook: SIGSTOP the worker — alive but unresponsive.

        A stopped process answers no heartbeats, so after
        ``heartbeat_misses`` supervisor ticks it is declared wedged,
        killed and respawned.  POSIX only.
        """
        if not hasattr(signal, "SIGSTOP"):  # pragma: no cover
            raise RuntimeError("wedge_worker requires POSIX signals")
        try:
            os.kill(self._shards[shard_id].proc.pid, signal.SIGSTOP)
        except (ProcessLookupError, TypeError):  # pragma: no cover
            pass

    # -- the request path ----------------------------------------------------
    async def submit(
        self, spec: ExperimentSpec, deadline: Optional[float] = None
    ) -> ExperimentResult:
        """:meth:`StudyService.submit
        <repro.serve.service.StudyService.submit>` through the key's
        shard; the workers must be started first."""
        if not self._started and not self._closed:
            raise RuntimeError(
                "StudyCluster.submit before start(); use 'async with' "
                "or await start() first"
            )
        return await super().submit(spec, deadline)

    def _route(self, key: str, now: float):
        """The key's shard lane — or the fallback lane while that shard
        is down past the respawn budget or its breaker is open.

        A key's shard is the one it was placed on.  A key seen for the
        first time whose ring owner is healthy is placed on the healthy
        shard with the fewest flights in the building (the owner wins
        ties) and stays there, so its repeats hit that worker's L1.  A
        key whose ring owner is unhealthy is left unplaced and takes the
        owner's path.  A key refused admission is left unplaced too, so
        its retry can go where there is room.
        """
        shard_id = self._placement.get(key)
        if shard_id is None:
            owner = self._shards[self.router.shard_for(key)]
            if _healthy(owner):
                pick = owner
                for shard in self._shards:
                    if shard.inflight < pick.inflight and _healthy(shard):
                        pick = shard
                if pick.inflight < self.max_pending:
                    self._placement[key] = pick.id
                return pick, pick.id
            shard_id = owner.id
        shard = self._shards[shard_id]
        if not self.self_heal:
            if not shard.alive:
                self.stats.failures += 1
                self.obs.metrics.counter("serve.failures").inc()
                raise ShardDown(shard_id, "worker process has exited")
            return shard, shard_id
        if not shard.alive and not self._respawn_budget_left(shard):
            return self._lane, shard_id  # permanently down; breaker moot
        # A HALF_OPEN probe may target a dead-but-respawnable shard: the
        # flight queues and flushes after the respawn.
        ring = self._breaker(shard, shard.breaker.route, now) == "ring"
        return (shard if ring else self._lane), shard_id

    def _respawn_budget_left(self, shard: _Shard) -> bool:
        return self.max_respawns is None or shard.respawns < self.max_respawns

    # -- supervision ---------------------------------------------------------
    async def _supervise(self) -> None:
        """Heartbeat every worker; kill the wedged; respawn the dead.

        Runs until drain cancels it (after the last flight settles, so
        mid-drain deaths are still healed).
        """
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            for shard in self._shards:
                try:
                    self._tick(shard)
                except Exception:  # pragma: no cover - must not die
                    self.obs.metrics.counter(
                        "serve.supervisor_errors"
                    ).inc()

    def _tick(self, shard: _Shard) -> None:
        if shard.alive:
            if not shard.proc.is_alive():
                # EOF normally beats us to it; belt and braces for a
                # pipe end kept open by an inherited descriptor.
                self._shard_died(shard.id, "worker process exited")
            elif shard.awaiting_pong:
                shard.missed += 1
                self.stats.heartbeat_misses += 1
                self.obs.metrics.counter(
                    "serve.shard.heartbeat_misses"
                ).inc()
                if shard.missed >= self.heartbeat_misses:
                    self._kill_shard(
                        shard, f"wedged: {shard.missed} heartbeats missed"
                    )
            else:
                try:
                    shard.conn.send(("ping", next(self._ping_tokens)))
                    shard.awaiting_pong = True
                except (OSError, ValueError):
                    self._shard_died(shard.id, "pipe write failed (ping)")
        elif not self._draining or shard.queue:
            if self._respawn_budget_left(shard):
                self._respawn(shard)
            else:  # pragma: no cover - defensive
                while shard.queue:
                    self._enqueue(shard.queue.popleft(), self._lane)

    def _kill_shard(self, shard: _Shard, detail: str) -> None:
        """Forcibly terminate a wedged worker, then run the death path
        (replay + breaker) exactly as if it had crashed."""
        try:
            shard.proc.kill()
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            pass
        self._shard_died(shard.id, detail)

    def _respawn(self, shard: _Shard) -> None:
        try:
            proc, conn = self._spawn_proc(shard.id)
        except OSError:  # pragma: no cover - retry next tick
            return
        shard.reset(proc, conn)
        self._start_reader(shard)
        shard.respawns += 1
        self.stats.respawns += 1
        self.obs.metrics.counter("serve.shard.respawns").inc()
        t = time.monotonic() - self._t0
        self.obs.add_span(
            "serve.shard.respawn", "serve", t, t,
            track="serve", shard=shard.id, generation=shard.gen,
        )
        self._flush(shard)  # replay the orphans _shard_died requeued

    def _breaker(self, shard: _Shard, call, *args):
        """``call(*args)`` on ``shard``'s breaker; record the state
        transition if it made one."""
        brk = shard.breaker
        prev = brk.state
        out = call(*args)
        if brk.state == prev:
            return out
        self.obs.metrics.gauge("serve.shard.breaker_state").set(brk.state)
        t = time.monotonic() - self._t0
        self.obs.add_span(
            "serve.shard.breaker", "serve", t, t,
            track="serve", shard=shard.id, state=brk.state_name,
        )
        if brk.state == breaker_mod.OPEN:
            self.stats.breaker_opens += 1
            self.obs.metrics.counter("serve.shard.breaker_opens").inc()
        elif brk.state == breaker_mod.CLOSED:
            self.stats.breaker_closes += 1
            self.obs.metrics.counter("serve.shard.breaker_closes").inc()
        return out

    # -- worker messages (loop thread; scheduled by the readers) -------------
    def _reader(self, shard_id: int, conn, gen: int) -> None:
        """Blocking pipe reader (one daemon thread per worker process).

        Bound to one process *generation*: after a death bumps
        ``shard.gen``, anything this thread still delivers (including
        its EOF) is discarded on the loop thread.
        """
        try:
            while True:
                msg = conn.recv()
                self._loop.call_soon_threadsafe(
                    self._on_message, shard_id, gen, msg
                )
                if msg[0] in ("bye", "crash"):
                    return
        except (EOFError, OSError):
            self._loop.call_soon_threadsafe(self._on_eof, shard_id, gen)

    def _on_message(self, shard_id: int, gen: int, msg) -> None:
        shard = self._shards[shard_id]
        if gen != shard.gen:
            return  # a superseded generation; its flights were replayed
        kind = msg[0]
        if kind == "done":
            shard.missed = 0
            if self.self_heal and shard.breaker.state != breaker_mod.CLOSED:
                self._breaker(shard, shard.breaker.record_success)
            outcomes = []
            for i, reply, payload in msg[1]:
                flight = shard.batch[i]
                if reply == "result":
                    payload = ExperimentResult.from_json_dict(
                        json.loads(payload)
                    )
                elif reply == "deadline":
                    payload = DeadlineExceeded(flight.key, flight.deadline_s)
                outcomes.append((flight, payload))  # "failed": FailedPoint
            self._land(shard, outcomes, msg[2])
        elif kind == "pong":
            shard.awaiting_pong = False
            shard.missed = 0
        elif kind == "bye":
            shard.bye_payload = (msg[1], msg[2])
            shard.alive = False
            shard.bye.set()
        elif kind == "crash":
            self._shard_died(shard_id, msg[1])

    def _on_eof(self, shard_id: int, gen: int) -> None:
        shard = self._shards[shard_id]
        if gen != shard.gen:
            return  # EOF of a generation already declared dead
        if shard.bye_payload is not None or not shard.alive:
            return  # clean shutdown (or already handled)
        self._shard_died(shard_id, "worker pipe closed unexpectedly")

    def _shard_died(self, shard_id: int, detail: str) -> None:
        """One shard's worker is gone.  With ``self_heal``: open the
        breaker and queue its orphaned flights for replay (or move them
        to the fallback lane); without: fail them with
        :class:`ShardDown` and leave the shard down."""
        shard = self._shards[shard_id]
        if not shard.alive:
            return
        shard.alive = False
        # Invalidate the old reader: anything it still delivers is for
        # a flight we are about to replay — processing it would settle
        # the flight twice (once now, once after the replay executes).
        shard.gen += 1
        shard.awaiting_pong = False
        shard.missed = 0
        shard.batch = None
        shard.bye.set()  # a drain waiting on this shard must not hang
        self.stats.shard_crashes += 1
        self.obs.metrics.counter("serve.shard_crashes").inc()
        # Admission order: the replay keeps the original request order.
        orphans = [f for f in self._inflight.values() if f.lane is shard]
        shard.queue.clear()
        if not self.self_heal:
            for flight in orphans:
                self._settle(flight, ShardDown(shard_id, detail))
            return
        self._breaker(shard, shard.breaker.record_failure, time.monotonic())
        respawnable = self._respawn_budget_left(shard)
        for flight in orphans:
            flight.replays += 1
            if respawnable and flight.replays <= self.max_flight_replays:
                shard.queue.append(flight)
            else:
                # A flight that keeps dying with workers may be a poison
                # spec — isolate it on the fallback lane instead of
                # taking another worker down.
                self._enqueue(flight, self._lane)
        if shard.queue:
            self.stats.replayed += len(shard.queue)
            self.obs.metrics.counter("serve.shard.replayed").inc(
                len(shard.queue)
            )
