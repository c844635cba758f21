#!/usr/bin/env python
"""Serving-layer throughput: single-flight, batching, and sharding.

Two benchmark families share this file:

**Naive vs served** replays the same hot-spot traffic mix two ways:

- ``naive``: what existed before ``repro.serve`` — every request
  re-drives the executor individually and sequentially (one
  ``run_many([spec])`` per request, no dedupe, no batching, no cache),
  exactly like N independent CLI invocations;
- ``served``: the same requests fired concurrently at a
  :class:`~repro.serve.service.StudyService`, which collapses identical
  in-flight requests to one execution and batches the rest.

**Cluster scaling** replays one seeded zipfian mix (the load
generator's "millions of users" shape) through three targets: the
single-process service, a 1-shard cluster, and a multi-shard cluster.
Its gates are the sharding story's acceptance criteria:

- byte parity — the multi-shard cluster's responses are byte-identical
  to the single-process service's (equal scoreboard digests *and* equal
  per-request payloads);
- exact dedupe — every arm executes exactly one simulation per distinct
  requested spec (global single-flight + L1);
- near-linear scaling — the multi-shard arm beats the 1-shard arm by at
  least ``--min-shard-speedup`` (default 3.0 at 4 shards).  This gate
  needs real parallel hardware: it is enforced only when
  ``os.cpu_count()`` >= the shard count (CI's 4-vCPU runners qualify),
  and reported as skipped otherwise — correctness gates always run.

**Chaos** (``--chaos``, on by default where fork + POSIX signals are
available) replays the same seeded zipfian mix twice through an
L2-backed self-healing cluster: once calm, once with a seeded
:class:`~repro.serve.loadgen.ChaosPlan` that SIGKILLs one worker and
SIGSTOPs (wedges) another mid-replay.  Its gates are the self-healing
story's acceptance criteria:

- zero lost requests — both arms finish with zero errors and a full
  payload per request; no caller ever sees a worker death;
- digest parity — the chaos arm's scoreboard digest is byte-identical
  to the calm arm's (replayed responses are indistinguishable);
- healing happened — the chaos arm records >= 1 respawn, its executed
  count stays within the fault budget of the calm arm's exact dedupe,
  and after the replay every victim shard carries new flights through
  its respawned worker without touching the fallback lane (recovery to
  the ring).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py          # full
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --quick --check

``--check`` exits non-zero on any enforced-gate violation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.exec import ExperimentExecutor  # noqa: E402
from repro.serve import (  # noqa: E402
    ChaosPlan,
    ShardRouter,
    StudyCluster,
    StudyService,
    ZipfianMix,
    balanced_universe,
    build_spec,
    run_load,
    scoreboard,
)


def traffic_mix(quick: bool):
    """(unique specs, request sequence) — a hot-spot distribution."""
    if quick:
        uniques = [
            build_spec("fig1", runtime="docker", nodes=2),
            build_spec("fig1", runtime="singularity", nodes=2),
            build_spec("fig1", runtime="docker", nodes=4),
        ]
        weights = [14, 6, 4]  # 24 requests over 3 specs
    else:
        uniques = [
            build_spec("fig1", runtime="docker", nodes=2),
            build_spec("fig1", runtime="singularity", nodes=2),
            build_spec("fig1", runtime="docker", nodes=4),
            build_spec("fig1", runtime="shifter", nodes=2),
            build_spec("fig3", runtime="singularity", nodes=4),
            build_spec("fig3", runtime="singularity", nodes=8),
        ]
        weights = [40, 20, 12, 8, 10, 6]  # 96 requests over 6 specs
    requests = []
    # Deterministic interleaving: round-robin drain of the weights, so
    # popular specs recur throughout the replay instead of clustering.
    remaining = list(weights)
    while any(remaining):
        for i, left in enumerate(remaining):
            if left:
                requests.append(uniques[i])
                remaining[i] -= 1
    return uniques, requests


def run_naive(requests):
    """One sequential, isolated executor drive per request."""
    executor = ExperimentExecutor(workers=1)
    t0 = time.perf_counter()
    results = [executor.run_many([spec])[0] for spec in requests]
    elapsed = time.perf_counter() - t0
    return results, elapsed, executor.stats


def run_served(requests):
    executor = ExperimentExecutor(workers=1, keep_going=True)
    service = StudyService(
        executor=executor, max_pending=len(requests), max_batch=16
    )

    async def replay():
        async with service:
            return await asyncio.gather(
                *(service.submit(spec) for spec in requests)
            )

    t0 = time.perf_counter()
    results = asyncio.run(replay())
    elapsed = time.perf_counter() - t0
    return results, elapsed, service


def cluster_mix(quick: bool, shards: int) -> ZipfianMix:
    """The seeded zipfian mix for the scaling arms.

    The universe is *balanced* for the target shard count (the router
    spreads its keys evenly by construction), so the scaling gate
    measures serving overhead rather than one hash draw's luck; the
    specs differ by one mesh cell each — distinct keys, equal cost.
    """
    n_uniques = 12 if quick else 24
    universe = balanced_universe(
        n_uniques, ShardRouter(shards), fig="fig1", nodes=2, sim_steps=10
    )
    return ZipfianMix.build(
        universe, n_requests=12 * n_uniques, s=1.1, seed=42
    )


def run_cluster_arm(mix: ZipfianMix, shards: int):
    """One cluster replay; returns (report, scoreboard, setup_s)."""
    t0 = time.perf_counter()
    # A generous wedge budget: the scaling mix is deliberately
    # CPU-heavy, and on small runners N contending workers can stretch
    # one simulation past the default 3s heartbeat budget — which would
    # turn a throughput benchmark into an accidental chaos test.
    cluster = StudyCluster(
        shards=shards, max_pending=len(mix.universe),
        heartbeat_interval=0.5, heartbeat_misses=20,
    )

    async def replay():
        async with cluster:
            return await run_load(cluster, mix, concurrency=32)

    report = asyncio.run(replay())
    setup_s = time.perf_counter() - t0 - report.elapsed_s
    board = scoreboard(
        report,
        cluster.stats.executed,
        per_shard=cluster.stats.requests_by_shard,
    )
    return report, board, setup_s


def run_service_arm(mix: ZipfianMix):
    """The single-process parity baseline (L1-backed service)."""
    service = StudyService(
        executor=ExperimentExecutor(workers=1, l1=True, keep_going=True),
        max_pending=len(mix.universe),
    )

    async def replay():
        async with service:
            return await run_load(service, mix, concurrency=32)

    report = asyncio.run(replay())
    board = scoreboard(report, service.executor.stats.executed)
    return report, board


def run_cluster_suite(quick: bool, max_shards: int):
    """Replay the zipfian mix through service, 1 shard, and N shards."""
    mix = cluster_mix(quick, max_shards)
    shard_counts = [1, max_shards] if quick else [1, 2, max_shards]
    print(
        f"cluster mix: {mix.n_requests} zipf(s={mix.s}) requests over "
        f"{len(mix.universe)} specs, seed {mix.seed}"
    )
    service_report, service_board = run_service_arm(mix)
    arms = {}
    for n in shard_counts:
        report, board, setup_s = run_cluster_arm(mix, n)
        arms[n] = {"report": report, "board": board, "setup_s": setup_s}
    return mix, service_report, service_board, arms


#: Fast supervision so the chaos arm detects the wedged worker and
#: recovers within the replay, not after.  Workers answer heartbeats
#: between specs, so the wedge budget (interval x misses = 1.5s) only
#: needs to exceed one simulation (~0.7s here), not a whole batch.
CHAOS_SUPERVISOR = dict(heartbeat_interval=0.05, heartbeat_misses=30)


def chaos_supported(shards: int) -> bool:
    return (
        shards >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and hasattr(signal, "SIGSTOP")
        and hasattr(os, "kill")
    )


def chaos_mix(quick: bool, shards: int) -> ZipfianMix:
    """The chaos arms' mix: same shape as the scaling mix but with
    cheap simulations (``sim_steps=1``).  The chaos suite measures
    recovery, not throughput — cheap specs keep every execution chunk
    far inside the wedge budget even on a single-core runner where N
    contending workers multiply each spec's wall clock."""
    n_uniques = 12 if quick else 24
    universe = balanced_universe(
        n_uniques, ShardRouter(shards), fig="fig1", nodes=2, sim_steps=1
    )
    return ZipfianMix.build(
        universe, n_requests=12 * n_uniques, s=1.1, seed=42
    )


async def drive_victims_to_ring(cluster, victims, specs, timeout):
    """Recovery-to-ring proof after a fault: submit ``specs`` one at a
    time until every victim shard's ``flights_by_shard`` has grown
    (bounded by wall clock).  Returns ``(behind, fallbacks)``: the
    victims whose count never grew and the flights the probe sent to
    the fallback lane.

    Cycling the universe reaches every shard: a key placed on a victim
    stays there, and an unplaced key goes to its hash owner.  A killed
    or stopped worker answers nothing, so when the fallback lane stays
    untouched, each probe response on a victim's lane came from its
    respawned worker.
    """
    t_limit = time.monotonic() + timeout
    base = list(cluster.stats.flights_by_shard)
    fallbacks = cluster.stats.fallbacks
    behind = set(victims)
    i = 0
    while behind and time.monotonic() < t_limit:
        try:
            await asyncio.wait_for(
                cluster.submit(specs[i % len(specs)]),
                max(0.0, t_limit - time.monotonic()),
            )
        except asyncio.TimeoutError:
            break
        i += 1
        behind = {
            v for v in behind
            if cluster.stats.flights_by_shard[v] <= base[v]
        }
    return behind, cluster.stats.fallbacks - fallbacks


def run_chaos_suite(quick: bool, shards: int):
    """Calm vs chaos replay of one seeded mix; returns (block, failures).

    Both arms run the self-healing cluster with the shared L2 cache
    enabled (each arm gets its own fresh cache directory), so a request
    replayed after a kill lands on the cached result and the executed
    count stays within the fault budget.
    """
    mix = chaos_mix(quick, shards)
    plan = ChaosPlan.build(
        n_shards=shards, n_requests=mix.n_requests,
        kills=1, wedges=1, seed=mix.seed,
    )
    ops_desc = ", ".join(
        f"{op.kind} shard {op.shard} at request {op.at_request}"
        for op in plan.ops
    )
    print(f"chaos plan: {ops_desc} (seed {plan.seed}, {shards} shards)")

    def arm(chaos_plan, cache_dir):
        async def go():
            cluster = StudyCluster(
                shards=shards, cache=True, cache_dir=cache_dir,
                max_pending=len(mix.universe), **CHAOS_SUPERVISOR,
            )
            async with cluster:
                report = await run_load(
                    cluster, mix, concurrency=32, chaos=chaos_plan
                )
                ring = None
                if chaos_plan is not None:
                    ring = await drive_victims_to_ring(
                        cluster, victims, mix.universe, timeout=30.0
                    )
            return report, cluster, ring

        return asyncio.run(go())

    victims = sorted({op.shard for op in plan.ops})
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        calm_report, calm, _ = arm(None, os.path.join(tmp, "calm"))
        chaos_report, chaos, (behind, probe_fallbacks) = arm(
            plan, os.path.join(tmp, "chaos")
        )

    calm_board = scoreboard(calm_report, calm.stats.executed)
    chaos_board = scoreboard(chaos_report, chaos.stats.executed)
    distinct = mix.distinct_requested()
    digest_match = chaos_board["digest"] == calm_board["digest"]

    block = {
        "requests": mix.n_requests,
        "shards": shards,
        "plan": [
            {"kind": op.kind, "shard": op.shard,
             "at_request": op.at_request}
            for op in plan.ops
        ],
        "seed": plan.seed,
        "calm": {
            **calm_board,
            "respawns": calm.stats.respawns,
        },
        "chaos": {
            **chaos_board,
            "chaos_applied": chaos_report.chaos_applied,
            "respawns": chaos.stats.respawns,
            "replayed": chaos.stats.replayed,
            "fallbacks": chaos.stats.fallbacks,
            "heartbeat_misses": chaos.stats.heartbeat_misses,
            "ring_probe": {
                "victims": victims,
                "behind": sorted(behind),
                "fallbacks": probe_fallbacks,
            },
        },
        "digest_match": digest_match,
    }

    failures = []
    for label, board in (("calm", calm_board), ("chaos", chaos_board)):
        if board["errors"]:
            failures.append(
                f"chaos suite: {label} arm had {board['errors']} errors "
                f"(lost requests)"
            )
    if chaos_report.chaos_applied != len(plan.ops):
        failures.append(
            f"chaos suite: applied {chaos_report.chaos_applied} of "
            f"{len(plan.ops)} planned faults"
        )
    if not digest_match:
        failures.append(
            "chaos suite: scoreboard digest differs from the calm run"
        )
    if calm.stats.executed != distinct:
        failures.append(
            f"chaos suite: calm arm executed {calm.stats.executed} != "
            f"{distinct} distinct specs"
        )
    if abs(chaos.stats.executed - distinct) > len(plan.ops):
        failures.append(
            f"chaos suite: chaos arm executed {chaos.stats.executed}, "
            f"outside the +/-{len(plan.ops)} fault budget of {distinct}"
        )
    if chaos.stats.respawns < 1:
        failures.append("chaos suite: no worker was respawned")
    if behind:
        failures.append(
            f"chaos suite: victim shard(s) {sorted(behind)} carried no "
            f"new flight after the replay (no recovery to the ring)"
        )
    if probe_fallbacks:
        failures.append(
            f"chaos suite: {probe_fallbacks} recovery probe(s) took the "
            f"fallback lane instead of a respawned worker"
        )
    if calm.stats.respawns != 0:
        failures.append(
            f"chaos suite: calm arm respawned {calm.stats.respawns} "
            f"worker(s) — the supervisor is trigger-happy"
        )
    return block, failures


def payloads_by_name(results):
    """Canonical JSON payload per spec name, asserting intra-arm parity."""
    out = {}
    for r in results:
        blob = json.dumps(r.to_json_dict(), sort_keys=True)
        prev = out.setdefault(r.spec_name, blob)
        assert prev == blob, f"non-identical responses for {r.spec_name}"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized mix (24 requests over 3 specs)")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero on parity/dedupe/speedup failure")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="wall-clock floor served must beat (default 2.0)")
    ap.add_argument("--cluster", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="also run the sharded-cluster scaling arms")
    ap.add_argument("--shards", type=int, default=4,
                    help="shard count of the scaled cluster arm "
                         "(default 4)")
    ap.add_argument("--min-shard-speedup", type=float, default=3.0,
                    help="wall-clock floor the multi-shard arm must "
                         "beat over 1 shard (default 3.0; enforced "
                         "only when cpu_count >= shards)")
    ap.add_argument("--chaos", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="also run the kill-worker chaos arm (skipped "
                         "automatically without fork/POSIX signals)")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="write the JSON report to FILE")
    args = ap.parse_args(argv)

    uniques, requests = traffic_mix(args.quick)
    print(f"traffic: {len(requests)} requests over {len(uniques)} unique "
          f"specs ({'quick' if args.quick else 'full'} mix)")

    naive_results, naive_s, naive_stats = run_naive(requests)
    served_results, served_s, service = run_served(requests)

    # Parity first: identical payload per spec across arms and requests.
    naive_blobs = payloads_by_name(naive_results)
    served_blobs = payloads_by_name(served_results)
    parity = naive_blobs == served_blobs

    speedup = naive_s / served_s if served_s > 0 else float("inf")
    dedupe_exact = service.executor.stats.executed == len(uniques)
    lat = service.stats.latency_summary()

    report = {
        "requests": len(requests),
        "unique_specs": len(uniques),
        "naive": {
            "elapsed_s": naive_s,
            "executed": naive_stats.executed,
        },
        "served": {
            "elapsed_s": served_s,
            "executed": service.executor.stats.executed,
            "dedup_hits": service.stats.dedup_hits,
            "batches": service.stats.batches,
            "latency_p50_s": lat["p50"],
            "latency_p95_s": lat["p95"],
            "latency_p99_s": lat["p99"],
        },
        "speedup": speedup,
        "parity": parity,
    }

    failures = []
    if args.cluster:
        mix, service_report, service_board, arms = run_cluster_suite(
            args.quick, args.shards
        )
        scaled = arms[args.shards]
        baseline = arms[1]
        shard_speedup = (
            baseline["report"].elapsed_s / scaled["report"].elapsed_s
            if scaled["report"].elapsed_s > 0
            else float("inf")
        )
        cluster_parity = (
            scaled["report"].payloads == service_report.payloads
            and scaled["board"]["digest"] == service_board["digest"]
        )
        cores = os.cpu_count() or 1
        speedup_enforced = cores >= args.shards
        report["cluster"] = {
            "requests": mix.n_requests,
            "unique_specs": len(mix.universe),
            "distinct_requested": mix.distinct_requested(),
            "zipf_s": mix.s,
            "seed": mix.seed,
            "service": service_board,
            "arms": {
                str(n): {**arm["board"], "setup_s": arm["setup_s"]}
                for n, arm in arms.items()
            },
            "shard_speedup": shard_speedup,
            "shard_speedup_enforced": speedup_enforced,
            "parity_vs_service": cluster_parity,
        }
        floor = mix.distinct_requested()
        if not cluster_parity:
            failures.append(
                f"{args.shards}-shard cluster responses differ from the "
                f"single-process service"
            )
        for label, board in (
            [("service", service_board)]
            + [(f"{n}-shard", arm["board"]) for n, arm in arms.items()]
        ):
            if board["errors"]:
                failures.append(f"{label} arm had {board['errors']} errors")
            if board["executed"] != floor:
                failures.append(
                    f"{label} arm executed {board['executed']} != "
                    f"{floor} distinct specs (dedupe not exact)"
                )
        if speedup_enforced:
            if shard_speedup < args.min_shard_speedup:
                failures.append(
                    f"shard speedup {shard_speedup:.2f}x below floor "
                    f"{args.min_shard_speedup}x ({args.shards} shards)"
                )
        else:
            print(
                f"note: shard-speedup gate skipped "
                f"({cores} cores < {args.shards} shards); "
                f"measured {shard_speedup:.2f}x",
                file=sys.stderr,
            )

    if args.chaos:
        if chaos_supported(args.shards):
            chaos_block, chaos_failures = run_chaos_suite(
                args.quick, args.shards
            )
            report["chaos"] = chaos_block
            failures.extend(chaos_failures)
        else:
            report["chaos"] = {"skipped": True}
            print(
                "note: chaos arm skipped (needs >= 2 shards, fork, and "
                "POSIX signals)",
                file=sys.stderr,
            )

    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")

    if args.check:
        if not parity:
            failures.append("served responses differ from naive")
        if not dedupe_exact:
            failures.append(
                f"expected {len(uniques)} executions, got "
                f"{service.executor.stats.executed}"
            )
        if speedup < args.min_speedup:
            failures.append(
                f"speedup {speedup:.2f}x below floor {args.min_speedup}x"
            )
        for f in failures:
            print(f"CHECK FAILED: {f}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
