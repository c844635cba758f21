"""Deterministic zipfian load generation for the serving layer.

Real study traffic is head-heavy: a few popular configurations draw
most of the requests while a long tail of variants trickles in — the
classic zipfian shape of "millions of users" hitting a cached endpoint.
This module replays exactly that, reproducibly:

- :func:`zipfian_sequence` draws a request sequence from a Zipf(s)
  distribution using its own arithmetic over ``random.Random(seed)`` —
  the same seed yields the same sequence on every run, every process,
  every ``PYTHONHASHSEED``;
- :func:`default_universe` / :func:`balanced_universe` build families of
  distinct-key, equal-cost :class:`ExperimentSpec`\\ s (the key knob is a
  one-cell nudge to the work model's mesh size — enough to change the
  :func:`~repro.exec.speckey.spec_key`, too small to change the cost);
- :func:`run_load` fires a mix at any target with an async
  ``submit(spec)`` — the :class:`~repro.serve.service.StudyService`
  front end, in-process or as a
  :class:`~repro.serve.cluster.StudyCluster` — under bounded
  concurrency, retrying backpressure rejections with seeded
  decorrelated-jitter backoff (deterministic for a fixed mix seed, yet
  never synchronized into a thundering herd);
- :class:`ChaosPlan` grows the replay a seeded fault schedule — kill
  -9 this shard's worker when request K is issued, wedge (SIGSTOP)
  that one — driving the cluster's self-healing path mid-replay;
- :func:`scoreboard` turns the outcome into the numbers that matter
  (throughput, dedupe ratio, p50/p95/p99, per-shard balance) plus a
  SHA-256 **digest over the seed-determined fields only** (universe
  keys, sequence, response payloads, error count — never wall-clock,
  and never execution counts, which a kill landing between a worker's
  cache write and its reply can legitimately shift by one), so two
  runs of the same seeded mix must report the same digest: cluster vs
  single service, chaos vs calm.  Execution/dedupe exactness is gated
  separately, where the run's fault budget is known.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.experiment import ExperimentSpec
from repro.exec.speckey import spec_key
from repro.serve.requests import build_spec
from repro.serve.router import ShardRouter
from repro.serve.service import Overloaded, ServeStats
from repro.workloads import get_workload

#: Retry ceiling for Overloaded rejections before a request is recorded
#: as an error (the generator paces itself off ``retry_after``).
MAX_RETRIES = 100


def zipfian_sequence(
    n_items: int, n_requests: int, s: float = 1.1, seed: int = 0
) -> list[int]:
    """``n_requests`` item indices drawn i.i.d. from Zipf(``s``).

    Item ``i`` (0-based) has weight ``1 / (i + 1) ** s``; ``s=0`` is
    uniform, larger ``s`` concentrates traffic on the head.  Sampling is
    inverse-CDF over ``random.Random(seed).random()`` — no dict/set
    iteration anywhere, so the sequence is identical across processes
    and hash seeds.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if not s >= 0:  # NaN fails this too
        raise ValueError("zipf exponent must be >= 0")
    weights = [1.0 / (i + 1) ** s for i in range(n_items)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0  # guard against float drift at the top end
    rng = random.Random(seed)
    return [bisect_left(cdf, rng.random()) for _ in range(n_requests)]


def ensure_distinct_keys(specs: Sequence[ExperimentSpec]) -> None:
    """Raise if any two specs share a :func:`spec_key`.

    The universes below can only mint distinct keys because each variant
    perturbs the work model; a caller concatenating universes (or a
    nudge that stops reaching the key — the original bug was nudged
    models built outside spec construction) would otherwise collapse
    requests into one cache entry and silently inflate the dedupe
    ratio.  Universe builders call this before returning.
    """
    seen: dict[str, str] = {}
    for spec in specs:
        key = spec_key(spec)
        if key in seen:
            raise ValueError(
                f"universe key collision: {spec.name!r} and "
                f"{seen[key]!r} both map to {key[:16]}…"
            )
        seen[key] = spec.name


def default_universe(
    n: int,
    fig: str = "fig1",
    nodes: int = 2,
    sim_steps: int = 1,
    workload: str = "alya",
) -> list[ExperimentSpec]:
    """``n`` distinct-key, equal-cost specs on one figure shape.

    Each variant rebuilds the spec through :func:`build_spec` (so it is
    validated exactly like a real request — never a hand-assembled
    model) and asks the ``workload``'s registry entry for variant ``i``
    via :meth:`~repro.workloads.base.Workload.nudge` — a new
    :func:`~repro.exec.speckey.spec_key` per variant, with a cost
    difference of one part in millions (the simulations stay
    comparable, which is what a balance measurement needs).
    """
    if n < 1:
        raise ValueError("universe size must be >= 1")
    base = build_spec(fig, nodes=nodes, sim_steps=sim_steps,
                      workload=workload)
    wl = get_workload(workload)
    out = []
    for i in range(n):
        out.append(
            dataclasses.replace(
                base,
                name=f"{base.name}-u{i:03d}",
                workmodel=wl.nudge(base.workmodel, i),
            )
        )
    ensure_distinct_keys(out)
    return out


def balanced_universe(
    n: int,
    router: ShardRouter,
    fig: str = "fig1",
    nodes: int = 2,
    sim_steps: int = 1,
    workload: str = "alya",
) -> list[ExperimentSpec]:
    """Like :func:`default_universe`, but the ``n`` variants are chosen
    (deterministically) so the router spreads them as evenly as shard
    arithmetic allows — at most a one-spec difference between shards.

    Throughput benchmarks use this: a scaling measurement should gate on
    serving overhead, not on the luck of one hash draw.  Router balance
    *in general* is the property tests' job, not the benchmark's.
    """
    if n < 1:
        raise ValueError("universe size must be >= 1")
    quota = -(-n // router.n_shards)  # ceil
    counts = [0] * router.n_shards
    out: list[ExperimentSpec] = []
    base = build_spec(fig, nodes=nodes, sim_steps=sim_steps,
                      workload=workload)
    wl = get_workload(workload)
    i = 0
    limit = 1000 * n  # deterministic search, bounded
    while len(out) < n and i < limit:
        spec = dataclasses.replace(
            base,
            name=f"{base.name}-u{i:03d}",
            workmodel=wl.nudge(base.workmodel, i),
        )
        shard = router.shard_for(spec_key(spec))
        if counts[shard] < quota:
            counts[shard] += 1
            out.append(spec)
        i += 1
    if len(out) < n:  # pragma: no cover - would need a pathological ring
        raise RuntimeError("could not balance the universe; ring too skewed")
    ensure_distinct_keys(out)
    return out


@dataclass(frozen=True)
class ZipfianMix:
    """A seeded request mix: the universe plus the drawn sequence."""

    universe: tuple
    sequence: tuple
    s: float
    seed: int

    @classmethod
    def build(
        cls,
        universe: Sequence[ExperimentSpec],
        n_requests: int,
        s: float = 1.1,
        seed: int = 0,
    ) -> "ZipfianMix":
        return cls(
            universe=tuple(universe),
            sequence=tuple(
                zipfian_sequence(len(universe), n_requests, s=s, seed=seed)
            ),
            s=s,
            seed=seed,
        )

    @property
    def n_requests(self) -> int:
        return len(self.sequence)

    def distinct_requested(self) -> int:
        """Unique specs the sequence actually touches (the execution
        floor for a perfectly deduplicating server)."""
        return len(set(self.sequence))

    def specs(self) -> list[ExperimentSpec]:
        return [self.universe[i] for i in self.sequence]


@dataclass(frozen=True)
class ChaosOp:
    """One scheduled fault: ``kind`` (``"kill"`` → SIGKILL the worker,
    ``"wedge"`` → SIGSTOP it) applied to ``shard`` when request
    ``at_request`` of the replay acquires its concurrency slot."""

    kind: str
    shard: int
    at_request: int


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded fault schedule for one replay.

    :meth:`build` picks distinct victim shards and mid-replay trigger
    points (in the middle half of the sequence, so faults land while
    traffic is genuinely in flight) from
    ``random.Random(f"chaos:{seed}:{n_shards}:{n_requests}")`` — the
    same seed plans the same faults on every run, which is what lets
    the chaos gate compare digests against a no-chaos run of the same
    mix.
    """

    ops: tuple
    seed: int = 0

    @classmethod
    def build(
        cls,
        n_shards: int,
        n_requests: int,
        kills: int = 1,
        wedges: int = 0,
        seed: int = 0,
    ) -> "ChaosPlan":
        if kills < 0 or wedges < 0:
            raise ValueError("kills and wedges must be >= 0")
        if kills + wedges > n_shards:
            raise ValueError(
                "at most one fault per shard: "
                f"kills+wedges={kills + wedges} > n_shards={n_shards}"
            )
        if kills + wedges and n_requests < 4:
            raise ValueError("chaos needs a replay of at least 4 requests")
        rng = random.Random(f"chaos:{seed}:{n_shards}:{n_requests}")
        victims = rng.sample(range(n_shards), kills + wedges)
        lo = n_requests // 4
        hi = max(lo + 1, (3 * n_requests) // 4)
        ops = [
            ChaosOp(
                kind="kill" if i < kills else "wedge",
                shard=shard,
                at_request=rng.randrange(lo, hi),
            )
            for i, shard in enumerate(victims)
        ]
        ops.sort(key=lambda op: (op.at_request, op.shard, op.kind))
        return cls(ops=tuple(ops), seed=seed)


def _apply_chaos(target, op: ChaosOp) -> None:
    if op.kind == "kill":
        target.kill_worker(op.shard)
    elif op.kind == "wedge":
        target.wedge_worker(op.shard)
    else:  # pragma: no cover - plan construction guards this
        raise ValueError(f"unknown chaos op kind {op.kind!r}")


@dataclass
class LoadReport:
    """What one replay produced: payloads, latencies, wall-clock."""

    mix: ZipfianMix
    #: Per-request canonical-JSON response payloads ("ERROR:<type>" for
    #: requests that ultimately failed), in sequence order.
    payloads: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Overloaded rejections that were retried (not errors).
    retries: int = 0
    errors: int = 0
    #: Requests that exhausted the retry ceiling (a subset of errors).
    overload_exhausted: int = 0
    #: The server's last ``retry_after`` hint seen before a request
    #: gave up — what the operator needs to re-tune the ceiling.
    last_retry_after: Optional[float] = None
    #: Chaos ops actually fired during the replay.
    chaos_applied: int = 0


async def run_load(
    target,
    mix: ZipfianMix,
    concurrency: int = 32,
    max_retries: Optional[int] = None,
    chaos: Optional[ChaosPlan] = None,
    retry_cap: float = 1.0,
) -> LoadReport:
    """Replay ``mix`` against ``target`` (anything with an async
    ``submit(spec)``), at most ``concurrency`` requests in flight.

    Requests are *issued* in sequence order; completions interleave
    freely (that is the point of a concurrent replay).  ``Overloaded``
    rejections back off and retry up to ``max_retries`` times after the
    first attempt (:data:`MAX_RETRIES` when ``None``; ``0`` = fail on
    the first rejection).  The backoff starts from the server's
    ``retry_after`` hint but spreads with decorrelated jitter —
    ``min(retry_cap, uniform(hint, 3 × previous_sleep))`` from a
    per-request ``random.Random(f"loadgen-retry:{seed}:{idx}")`` — so
    rejected requests never reconverge into a thundering herd, while a
    fixed mix seed still draws the exact same sleep schedule.

    ``chaos`` schedules worker faults into the replay (cluster targets
    only — the target must expose ``kill_worker`` / ``wedge_worker``);
    each op fires when its trigger request acquires a concurrency slot,
    i.e. genuinely mid-replay.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if max_retries is None:
        max_retries = MAX_RETRIES
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if not 0 < retry_cap < math.inf:
        raise ValueError("retry_cap must be finite and > 0")
    ops_at: dict[int, list[ChaosOp]] = {}
    if chaos is not None and chaos.ops:
        if not (
            hasattr(target, "kill_worker") and hasattr(target, "wedge_worker")
        ):
            raise TypeError(
                "chaos plans need a cluster target with "
                "kill_worker/wedge_worker hooks"
            )
        for op in chaos.ops:
            if op.at_request >= mix.n_requests:
                raise ValueError(
                    f"chaos op at request {op.at_request} beyond the "
                    f"{mix.n_requests}-request sequence"
                )
            ops_at.setdefault(op.at_request, []).append(op)
    report = LoadReport(mix=mix)
    report.payloads = [None] * mix.n_requests
    report.latencies = [None] * mix.n_requests
    gate = asyncio.Semaphore(concurrency)

    async def one(idx: int, spec: ExperimentSpec) -> None:
        async with gate:
            for op in ops_at.pop(idx, ()):
                _apply_chaos(target, op)
                report.chaos_applied += 1
            t0 = time.monotonic()
            rng = None
            prev_sleep = 0.0
            last_hint = None
            for attempt in range(max_retries + 1):
                try:
                    result = await target.submit(spec)
                    report.payloads[idx] = json.dumps(
                        result.to_json_dict(), sort_keys=True
                    )
                    report.latencies[idx] = time.monotonic() - t0
                    return
                except Overloaded as exc:
                    last_hint = exc.retry_after
                    if attempt == max_retries:
                        break  # ceiling hit; no point sleeping again
                    report.retries += 1
                    if rng is None:
                        rng = random.Random(
                            f"loadgen-retry:{mix.seed}:{idx}"
                        )
                    base = max(1e-4, exc.retry_after)
                    prev_sleep = min(
                        retry_cap,
                        rng.uniform(base, max(base, prev_sleep) * 3),
                    )
                    await asyncio.sleep(prev_sleep)
                except Exception as exc:
                    report.payloads[idx] = f"ERROR:{type(exc).__name__}"
                    report.latencies[idx] = time.monotonic() - t0
                    report.errors += 1
                    return
            report.payloads[idx] = "ERROR:Overloaded"
            report.latencies[idx] = time.monotonic() - t0
            report.errors += 1
            report.overload_exhausted += 1
            report.last_retry_after = last_hint

    t0 = time.monotonic()
    await asyncio.gather(
        *(
            one(idx, mix.universe[item])
            for idx, item in enumerate(mix.sequence)
        )
    )
    report.elapsed_s = time.monotonic() - t0
    return report


def scoreboard(
    report: LoadReport,
    executed: int,
    per_shard: Optional[Sequence[int]] = None,
) -> dict:
    """The replay's scoreboard: throughput, dedupe, tail latency,
    balance, and the deterministic digest.

    ``executed`` is the number of simulations the target actually ran
    (``target.stats.executed``, summed over every lane);
    ``per_shard`` is the cluster's request balance, when there is one.
    The ``digest`` covers only seed-determined data — universe keys,
    sequence, response payloads, error count — so it is invariant
    across runs, hash seeds, *and* across single-service vs cluster
    targets when their responses match byte-for-byte, *and* across
    chaos vs calm runs of the same mix.  Execution/dedupe counts are
    reported (and gated by callers that know the run's fault budget)
    but deliberately excluded from the digest: a worker killed in the
    instant between its cache write and its reply legitimately shifts
    ``executed`` by one without changing a single response byte.
    """
    n = report.mix.n_requests
    dedupe = n - executed
    stats = ServeStats(latencies=[x for x in report.latencies if x is not None])
    deterministic = {
        "universe_keys": [spec_key(s) for s in report.mix.universe],
        "zipf_s": report.mix.s,
        "seed": report.mix.seed,
        "sequence": list(report.mix.sequence),
        "responses": [
            hashlib.sha256(p.encode("utf-8")).hexdigest()
            if p is not None
            else "MISSING"
            for p in report.payloads
        ],
        "errors": report.errors,
    }
    digest = hashlib.sha256(
        json.dumps(deterministic, sort_keys=True).encode("utf-8")
    ).hexdigest()
    out = {
        "requests": n,
        "universe": len(report.mix.universe),
        "distinct_requested": report.mix.distinct_requested(),
        "executed": executed,
        "dedupe": dedupe,
        "dedupe_ratio": (dedupe / n) if n else 0.0,
        "errors": report.errors,
        "retries": report.retries,
        "elapsed_s": report.elapsed_s,
        "throughput_rps": (n / report.elapsed_s) if report.elapsed_s else 0.0,
        "latency": stats.latency_summary(),
        "digest": digest,
    }
    if per_shard is not None:
        per_shard = list(per_shard)
        low = min(per_shard) if per_shard else 0
        out["requests_by_shard"] = per_shard
        # None (JSON null) when a shard saw nothing: strict JSON has no
        # infinity.
        out["balance_ratio"] = (max(per_shard) / low) if low else None
    return out
