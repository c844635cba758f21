"""The four benchmark workloads and their output checks.

Each workload drives the public entry points a user calls, with the
defaults a user gets: the study classes with their default (serial,
uncached) executor, and a 2-shard :class:`StudyCluster` — the process
tier behind ``repro-serve --shards 2`` — fed by
:func:`repro.serve.loadgen.run_load`.  No legacy toggle is set and no
spec opts into ``collective_fastpath``.

A workload object builds its serve universe on construction (study
objects are built fresh per repetition); ``rep()`` runs one repetition
of the fixed body of work, checks its outputs against
``reference.json`` and returns a :class:`Rep`.  See ``README.md`` for
why these four workloads were chosen.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.metrics import ExperimentResult
from repro.core.report import check_fault_sensitivity, check_fig1, check_fig3
from repro.core.study import (
    ContainerSolutionsStudy,
    FaultSensitivityStudy,
    ScalabilityStudy,
)
from repro.core.study_ext import WorkloadScalingStudy
from repro.exec.speckey import spec_key
from repro.faults import FaultPlan
from repro.serve.cluster import StudyCluster
from repro.serve.loadgen import (
    ZipfianMix,
    balanced_universe,
    default_universe,
    run_load,
    scoreboard,
    zipfian_sequence,
)
from repro.serve.service import Overloaded, ServeError, ServeStats
from repro.workloads import get_workload
from speed import SpeedMeter

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: fig3_sweep's node ladder: 4 up to 64 nodes (check_fig3 needs points
#: past 32 nodes to judge where the self-contained image stops scaling).
FIG3_NODES = (4, 8, 16, 32, 64)

#: The deterministic straggler plan of benchmarks/bench_workload_scaling.py.
STRAGGLER_PLAN = (
    "seed=11,straggler_rate=2,straggler_factor=1.5,duration=30,horizon=0.5"
)
PHASED_NODES = (1, 2, 4)
EFFICIENCY_CEILING = 1.05

#: serve_zipf: universe size, zipf exponent, requests per stream and the
#: number of distinct keys every stream is drawn to touch (the median at
#: 400 draws, so ~14% of requests are cold misses on every seed).
UNIVERSE = 64
ZIPF_S = 1.1
REQUESTS = 400
DISTINCT = 56
SHARDS = 2
CONCURRENCY = 32  # repro-serve's --concurrency default

#: Open-loop rate ladder [requests/s], the two fixed rates on it, and the
#: p95 latency limit a rung must meet: ~4x one cold miss's service time
#: (a 2-node, 1-step fig1 spec takes 76-95 ms on a 2-CPU Xeon VM), and
#: between the p95 seen at 25 req/s (130-270 ms) and at 50 req/s
#: (470-1030 ms) there, so max_rps repeats while the system is steady.
LADDER = (12.5, 25.0, 50.0, 100.0, 200.0, 400.0)
RATE_LO = 25.0
RATE_HI = 50.0
LATENCY_LIMIT_MS = 350.0


def fingerprint(result) -> str:
    """SHA-256 of a spec's simulated outcome (wall-clock free)."""
    if not isinstance(result, ExperimentResult):
        return f"FAILED:{type(result).__name__}"
    blob = json.dumps(
        {
            "elapsed_seconds": result.elapsed_seconds,
            "messages": result.messages,
            "internode_messages": result.internode_messages,
            "phases": result.phases,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load_reference(name: str) -> dict:
    """The workload's reference digests (``{}`` before the first
    ``--write-reference``, which then fails every check)."""
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text()).get(name, {})


@dataclass
class Rep:
    """One repetition of a workload's body."""

    wall_s: float
    #: ``wall_s`` rescaled to the reference host speed (see ``speed.py``);
    #: set by metered repetitions only.
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Executor accounting: ``executed``, ``l1_hits``, ``l2_hits``.
    exec_stats: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one check as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# -- study workloads ---------------------------------------------------------

class StudyWorkload:
    """A fixed grid of specs run through study classes, serially."""

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        # The paper's grids are fixed: the seed changes nothing here.
        self.seed = seed
        self.reference = load_reference(self.name)

    def rewind(self) -> None:
        """Nothing to replay: the grids take no seeded input."""

    def studies(self) -> list:
        """Fresh study objects (fresh default executors) for one rep."""
        raise NotImplementedError

    def verdicts(self, outcomes) -> dict:
        raise NotImplementedError

    def rep(self, metered: bool = False) -> Rep:
        """One repetition; ``metered`` interleaves speed samples between
        specs (never in traced passes, whose spans they would inflate)."""
        studies = self.studies()
        if metered:
            meter = SpeedMeter()
            with _marking_specs(meter):
                meter.start()
                outcomes = [s.run() for s in studies]
                meter.stop()
            rep = Rep(wall_s=meter.wall_s, seconds=meter.seconds)
        else:
            t0 = time.perf_counter()
            outcomes = [s.run() for s in studies]
            rep = Rep(wall_s=time.perf_counter() - t0)
        got = _fingerprints(outcomes)
        for name, digest in self.reference.items():
            rep.check(got.get(name) == digest, f"fingerprint {name}")
        rep.check(set(got) == set(self.reference), "spec set vs reference")
        for verdict, ok in self.verdicts(outcomes).items():
            rep.check(ok, f"shape check {verdict}")
        stats = [s.executor.stats for s in studies]
        rep.exec_stats = {
            "executed": sum(st.executed for st in stats),
            "l1_hits": sum(st.l1_hits for st in stats),
            "l2_hits": sum(st.hits for st in stats),
        }
        return rep

    def fingerprints(self) -> dict:
        """Reference digests of the current code (``--write-reference``)."""
        return _fingerprints([s.run() for s in self.studies()])


@contextmanager
def _marking_specs(meter: SpeedMeter):
    """Let ``meter`` sample between specs: wrap ``ExperimentRunner.run``
    for the duration of one repetition."""
    from repro.core.runner import ExperimentRunner

    run = ExperimentRunner.__dict__["run"]

    def marked(self_, spec, obs=None):
        meter.mark()
        return run(self_, spec, obs=obs)

    ExperimentRunner.run = marked
    try:
        yield
    finally:
        ExperimentRunner.run = run


def _fingerprints(outcomes) -> dict:
    """``<study index>/<spec name>`` → fingerprint, over every spec."""
    return {
        f"{i}/{getattr(r, 'spec_name', j)}": fingerprint(r)
        for i, o in enumerate(outcomes)
        for j, r in enumerate(_results_of(o))
    }


def _results_of(outcome) -> list:
    """Every spec outcome of a study outcome, in grid order."""
    res = outcome.results
    if isinstance(next(iter(res.values())), dict):
        return [r for series in res.values() for r in series.values()]
    return list(res.values())


class Fig1Grid(StudyWorkload):
    name = "fig1_grid"

    def studies(self):
        return [ContainerSolutionsStudy()]

    def verdicts(self, outcomes):
        return check_fig1(outcomes[0])


class Fig3Sweep(StudyWorkload):
    name = "fig3_sweep"

    def studies(self):
        return [ScalabilityStudy(nodes=FIG3_NODES)]

    def verdicts(self, outcomes):
        return check_fig3(outcomes[0])


class FaultsPhased(StudyWorkload):
    name = "faults_phased"

    def studies(self):
        plan = FaultPlan.load(STRAGGLER_PLAN)
        return [FaultSensitivityStudy()] + [
            WorkloadScalingStudy(
                workload=w, mode="strong", nodes=PHASED_NODES,
                sim_steps=2, fault_plan=plan,
            )
            for w in ("stencil", "graph")
        ]

    def verdicts(self, outcomes):
        out = check_fault_sensitivity(outcomes[0])
        for scaling in outcomes[1:]:
            floor = get_workload(scaling.workload).strong_efficiency_floor
            for label in scaling.results:
                effs = scaling.efficiencies(label).values()
                out[f"{scaling.workload}.{label}.envelope"] = all(
                    floor <= e <= EFFICIENCY_CEILING for e in effs
                )
        return out


# -- serve_zipf --------------------------------------------------------------

def stream_seed(seed: int, stream: int, requests: int, distinct: int) -> int:
    """The first sub-seed of (``seed``, ``stream``) whose zipfian stream
    touches exactly ``distinct`` keys — every stream then costs the same
    number of cold misses, so seeds differ only in arrangement."""
    for k in range(10_000):
        sub = (seed * 1_000 + stream) * 10_000 + k
        seq = zipfian_sequence(UNIVERSE, requests, s=ZIPF_S, seed=sub)
        if len(set(seq)) == distinct:
            return sub
    raise RuntimeError("no stream with the requested distinct-key count")


def payload_of(result) -> str:
    """The canonical response payload (as the cluster's wire and
    :func:`run_load` render it)."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


class ServeZipf:
    """A seeded zipfian stream against a fresh 2-shard cluster with L1
    and a fresh on-disk L2 per stream."""

    name = "serve_zipf"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.universe = default_universe(UNIVERSE)
        self.reference = load_reference(self.name)
        self._streams = 0
        #: StudyCluster.start() wall times [s].
        self.start_s: list = []

    # -- one cluster lifetime -------------------------------------------------
    async def with_cluster(self, body):
        """Start a fresh cluster (fresh L2), wait until every shard has
        answered one request, run ``body(cluster)``, drain."""
        cache_dir = tempfile.mkdtemp(prefix="l2-", dir=self.work_dir)
        try:
            cluster = StudyCluster(
                shards=SHARDS, cache=True, cache_dir=cache_dir
            )
            t0 = time.perf_counter()
            await cluster.start()
            self.start_s.append(time.perf_counter() - t0)
            try:
                await warm_up(cluster)
                before = cluster.stats.executed
                out = await body(cluster)
            finally:
                await cluster.drain()
            return out, cluster, cluster.stats.executed - before
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def rewind(self) -> None:
        """Replay the same streams again (traced passes reuse them)."""
        self._streams = 0

    def next_mix(self) -> ZipfianMix:
        sub = stream_seed(self.seed, self._streams, REQUESTS, DISTINCT)
        self._streams += 1
        return ZipfianMix.build(self.universe, REQUESTS, s=ZIPF_S, seed=sub)

    def _check_responses(self, rep: Rep, mix, payloads) -> None:
        ref = self.reference.get("payload_sha256", [])
        for idx, item in enumerate(mix.sequence):
            p = payloads[idx]
            ok = p is not None and item < len(ref) and (
                hashlib.sha256(p.encode()).hexdigest() == ref[item]
            )
            rep.attempted += 1
            if not ok:
                rep.failed += 1
                rep.problems.append(f"request {idx}: {str(p)[:40]}")

    def expected_digest(self, mix) -> str:
        """The scoreboard digest a correct server must produce for
        ``mix``: the reference payloads in stream order, no errors."""
        ref = self.reference.get("payload_sha256", [])
        if len(ref) != UNIVERSE:
            return "no reference"
        blob = {
            "universe_keys": self.reference["universe_keys"],
            "zipf_s": mix.s,
            "seed": mix.seed,
            "sequence": list(mix.sequence),
            "responses": [ref[i] for i in mix.sequence],
            "errors": 0,
        }
        return hashlib.sha256(
            json.dumps(blob, sort_keys=True).encode()
        ).hexdigest()

    def rep(self, metered: bool = False) -> Rep:
        """Closed-loop replay of one stream (what ``repro-serve --zipf``
        runs), timed from first issue to last response; ``metered``
        brackets the replay with speed samples."""
        mix = self.next_mix()
        meter = SpeedMeter() if metered else None

        async def body(cluster):
            if meter:
                meter.start()
            report = await run_load(cluster, mix, concurrency=CONCURRENCY)
            if meter:
                meter.stop()
            return report

        report, cluster, executed = asyncio.run(self.with_cluster(body))
        rep = Rep(wall_s=report.elapsed_s)
        if meter:
            rep.seconds = report.elapsed_s * meter.seconds / meter.wall_s
        self._check_responses(rep, mix, report.payloads)
        board = scoreboard(report, executed,
                           per_shard=cluster.stats.requests_by_shard)
        rep.check(board["digest"] == self.expected_digest(mix),
                  "scoreboard digest")
        rep.check(executed == mix.distinct_requested(),
                  f"executed {executed} != distinct "
                  f"{mix.distinct_requested()}")
        rep.exec_stats = {
            "executed": executed,
            "l1_hits": cluster.stats.l1_hits,
            "l2_hits": cluster.stats.l2_hits,
        }
        return rep

    # -- open loop ------------------------------------------------------------
    def open_loop(self, rate: float) -> dict:
        """One stream at a fixed open-loop ``rate``; every request is
        timed from its due time."""
        mix = self.next_mix()
        step, cluster, executed = asyncio.run(
            self.with_cluster(lambda c: _open_loop(c, mix, rate))
        )
        rep = Rep(wall_s=step["wall_s"])
        self._check_responses(rep, mix, step["payloads"])
        rep.check(executed == mix.distinct_requested(), "executed")
        st = cluster.stats
        first = set()
        hit_lat, miss_lat = [], []
        for idx, item in enumerate(mix.sequence):
            (hit_lat if item in first else miss_lat).append(
                step["latencies"][idx]
            )
            first.add(item)
        lat = ServeStats(latencies=step["latencies"])
        step.update(
            rate=rate,
            rep=rep,
            p50_ms=lat.percentile(50) * 1e3,
            p95_ms=lat.percentile(95) * 1e3,
            hit_p50_ms=ServeStats(latencies=hit_lat).percentile(50) * 1e3,
            miss_p50_ms=ServeStats(latencies=miss_lat).percentile(50) * 1e3,
            gen_lag_p95_ms=ServeStats(
                latencies=step["lags"]).percentile(95) * 1e3,
            dedupe_ratio=(mix.n_requests - executed) / mix.n_requests,
            batches=st.batches,
            mean_batch=st.flights / st.batches if st.batches else 0.0,
            balance_ratio=st.balance_ratio(),
        )
        step["passed"] = (
            step["p95_ms"] <= LATENCY_LIMIT_MS
            and not step["backlog_growing"]
            and rep.failed == 0
        )
        return step

    def ladder(self) -> dict:
        """Both fixed rates, then the ladder climb for ``max_rps``.

        A rung passes when its p95 stays under the limit, its backlog is
        not growing when the schedule ends, and every response is right.
        """
        steps = {RATE_LO: self.open_loop(RATE_LO),
                 RATE_HI: self.open_loop(RATE_HI)}
        passing = [r for r in (RATE_LO, RATE_HI) if steps[r]["passed"]]
        if steps[RATE_LO]["passed"] and steps[RATE_HI]["passed"]:
            for rate in (r for r in LADDER if r > RATE_HI):
                steps[rate] = self.open_loop(rate)
                if not steps[rate]["passed"]:
                    break
                passing.append(rate)
        elif not steps[RATE_LO]["passed"]:
            for rate in sorted((r for r in LADDER if r < RATE_LO),
                               reverse=True):
                steps[rate] = self.open_loop(rate)
                if steps[rate]["passed"]:
                    passing.append(rate)
                    break
        return {"steps": steps, "max_rps": max(passing, default=0.0)}

    def fingerprints(self) -> dict:
        from repro.core.runner import ExperimentRunner

        runner = ExperimentRunner()
        return {
            "universe_keys": [spec_key(s) for s in self.universe],
            "payload_sha256": [
                hashlib.sha256(payload_of(runner.run(s)).encode()).hexdigest()
                for s in self.universe
            ],
        }


async def warm_up(cluster: StudyCluster) -> None:
    """One request per shard, outside the universe (1-node specs), so a
    shard counts as started only once it has answered."""
    probes = balanced_universe(cluster.n_shards, cluster.router, nodes=1)
    await asyncio.gather(*(cluster.submit(s) for s in probes))


async def _open_loop(cluster: StudyCluster, mix: ZipfianMix, rate: float):
    """Issue ``mix`` at ``rate`` requests/s on a fixed schedule, never
    waiting for responses; latency runs from each request's due time."""
    n = mix.n_requests
    latencies = [0.0] * n
    lags = [0.0] * n
    payloads = [None] * n
    state = {"done": 0, "retries": 0}

    async def one(idx: int, due: float) -> None:
        # A request still refused after the retries, or failed, keeps no
        # payload or an error payload, and fails the response check.
        spec = mix.universe[mix.sequence[idx]]
        try:
            for _ in range(100):
                try:
                    payloads[idx] = payload_of(await cluster.submit(spec))
                    break
                except Overloaded as exc:
                    state["retries"] += 1
                    await asyncio.sleep(max(1e-3, exc.retry_after))
        except ServeError as exc:
            payloads[idx] = f"ERROR:{type(exc).__name__}"
        latencies[idx] = time.perf_counter() - due
        state["done"] += 1

    tasks = []
    backlog_at_3q = 0
    base = time.perf_counter() + 0.01
    for idx in range(n):
        due = base + idx / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags[idx] = time.perf_counter() - due
        tasks.append(asyncio.create_task(one(idx, due)))
        if idx == (3 * n) // 4:
            backlog_at_3q = idx + 1 - state["done"]
    backlog_at_end = n - state["done"]
    await asyncio.gather(*tasks)
    return {
        "wall_s": time.perf_counter() - base,
        "latencies": latencies,
        "lags": lags,
        "payloads": payloads,
        "retries": state["retries"],
        "backlog_at_3q": backlog_at_3q,
        "backlog_at_end": backlog_at_end,
        # Growing: more requests outstanding when the schedule ends than
        # a quarter of the schedule earlier (2 requests of slack).
        "backlog_growing": backlog_at_end > backlog_at_3q + 2,
    }


def peak_rss_mb(with_children: bool) -> float:
    """This process's peak RSS, plus the largest reaped child's (the
    shard workers) when asked."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


WORKLOADS = {
    cls.name: cls for cls in (Fig1Grid, Fig3Sweep, ServeZipf, FaultsPhased)
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0
