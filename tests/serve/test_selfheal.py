"""The self-healing cluster: supervision, respawn, replay, degradation.

Every test drives real worker processes and real POSIX signals (SIGKILL
for deaths, SIGSTOP for wedges), so the assertions are the production
guarantees of self-healing:

- a killed worker is respawned and its orphaned in-flight requests are
  replayed — callers never see the death, responses stay
  byte-identical;
- a *wedged* (alive but unresponsive) worker misses heartbeats, is
  killed by the supervisor and healed the same way;
- a dead shard with respawn budget left keeps its keys: new flights
  queue on it and are served by its respawned worker, never by the
  fallback lane; once the respawn budget is exhausted the shard's keys
  are served by the front-end fallback executor instead of failing,
  while sibling shards keep serving their own keys;
- deadlines produce typed :class:`DeadlineExceeded` — waiter-side,
  worker-side (cancellation before execution), and for late joiners —
  without disturbing the shared flight;
- a shard dying *during drain* neither hangs the drain nor loses
  flights (the drain-vs-death race);
- the kill-worker chaos gate: a seeded zipfian replay with one worker
  killed -9 and one wedged mid-replay completes with zero lost
  requests and a scoreboard digest byte-identical to the calm run, and
  each victim shard then carries new flights through its respawned
  worker.

Heartbeat settings are per scenario: the wedge-detection budget
(``interval × misses``) must exceed the longest legitimate batch, so
tests that monkeypatch in slow simulations raise the miss budget, and
only the wedge/chaos tests run with a hair-trigger supervisor.
"""

import asyncio
import multiprocessing as mp
import os
import time

import pytest

import repro.exec.executor as executor_mod
import repro.serve.cluster as cluster_mod
from repro.exec import spec_key
from tests.serve import deadline_scenarios
from repro.serve import (
    ChaosPlan,
    DeadlineExceeded,
    StudyCluster,
    ZipfianMix,
    default_universe,
    run_load,
    scoreboard,
)

pytestmark = [
    pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="cluster tests rely on fork-inherited monkeypatches",
    ),
    pytest.mark.skipif(
        not hasattr(os, "kill"),
        reason="chaos hooks need POSIX signals",
    ),
]

#: Hair-trigger supervision for cheap (~10ms) simulations: wedge
#: detection within ~0.3s, respawn within one 50ms tick.
FAST = dict(heartbeat_interval=0.05, heartbeat_misses=6)

#: Fast respawn ticks but an effectively disabled wedge detector, for
#: tests whose monkeypatched simulations sleep longer than any sane
#: heartbeat budget.
FAST_RESPAWN = dict(heartbeat_interval=0.05, heartbeat_misses=1000)


def cheap_universe(n):
    return default_universe(n, fig="fig3", nodes=4, sim_steps=1)


def keys_for_shard(universe, router, shard_id):
    return [
        s for s in universe
        if router.shard_for(spec_key(s)) == shard_id
    ]


def run(coro):
    return asyncio.run(coro)


async def drive_victims_to_ring(cluster, victims, specs, timeout=20.0):
    """Recovery-to-ring proof after a fault, as in
    ``benchmarks/bench_serve_throughput.py``: submit ``specs`` one at a
    time until every victim shard's ``flights_by_shard`` has grown
    (bounded by wall clock).  Returns ``(behind, fallbacks)``: the
    victims whose count never grew and the flights the probe sent to
    the fallback lane.  A killed or stopped worker answers nothing, so
    with no fallback each answered probe on a victim's lane came from
    its respawned worker.
    """
    t_limit = time.monotonic() + timeout
    base = list(cluster.stats.flights_by_shard)
    fallbacks = cluster.stats.fallbacks
    behind = set(victims)
    i = 0
    while behind and time.monotonic() < t_limit:
        await asyncio.wait_for(
            cluster.submit(specs[i % len(specs)]),
            max(0.0, t_limit - time.monotonic()),
        )
        i += 1
        behind = {
            v for v in behind
            if cluster.stats.flights_by_shard[v] <= base[v]
        }
    return behind, cluster.stats.fallbacks - fallbacks


# ----------------------------- kill -> respawn -------------------------------


def test_kill_is_replayed_and_respawned_with_no_lost_requests():
    universe = cheap_universe(8)

    async def scenario():
        async with StudyCluster(shards=2, **FAST) as cluster:
            tasks = [
                asyncio.ensure_future(cluster.submit(s)) for s in universe
            ]
            await asyncio.sleep(0)  # let every submit route and flush
            cluster.kill_worker(0)
            cluster.kill_worker(1)
            results = await asyncio.gather(*tasks)
            return cluster, results

    cluster, results = run(scenario())
    # Zero lost requests, zero failures: every waiter got its result.
    assert {r.spec_name for r in results} == {s.name for s in universe}
    assert cluster.stats.shard_crashes >= 1
    assert cluster.stats.respawns >= 1
    assert cluster.stats.replayed >= 1
    assert cluster.obs.metrics.value_of("serve.shard.respawns") >= 1
    assert cluster.obs.metrics.value_of("serve.shard.replayed") >= 1


def test_replayed_responses_are_byte_identical_to_a_calm_run():
    universe = cheap_universe(6)
    mix = ZipfianMix.build(universe, n_requests=24, s=1.1, seed=5)

    async def arm(kill):
        async with StudyCluster(shards=2, **FAST) as cluster:
            plan = (
                ChaosPlan.build(
                    n_shards=2, n_requests=mix.n_requests,
                    kills=2, wedges=0, seed=5,
                )
                if kill
                else None
            )
            report = await run_load(
                cluster, mix, concurrency=8, chaos=plan
            )
            return report

    calm_report = run(arm(kill=False))
    chaos_report = run(arm(kill=True))
    assert calm_report.errors == 0 and chaos_report.errors == 0
    assert chaos_report.chaos_applied == 2
    # Replays re-execute deterministically: byte parity per request.
    assert chaos_report.payloads == calm_report.payloads


# ----------------------------- wedge detection -------------------------------


def test_wedged_worker_is_detected_killed_and_respawned():
    cluster = StudyCluster(shards=2, **FAST)
    universe = cheap_universe(8)
    victim = 0
    spec = keys_for_shard(universe, cluster.router, victim)[0]

    async def scenario():
        async with cluster:
            # Freeze the worker BEFORE it has traffic: the submit's
            # batch lands in a stopped process, and only wedge
            # detection followed by a respawn can serve it.
            cluster.wedge_worker(victim)
            result = await asyncio.wait_for(
                cluster.submit(spec), timeout=60.0
            )
            return cluster, result

    cluster, result = run(scenario())
    assert result.spec_name == spec.name
    assert cluster.stats.heartbeat_misses >= FAST["heartbeat_misses"]
    assert cluster.stats.respawns >= 1
    assert cluster.stats.shard_crashes >= 1
    assert (
        cluster.obs.metrics.value_of("serve.shard.heartbeat_misses")
        >= FAST["heartbeat_misses"]
    )


# ------------------------ respawn and degradation ---------------------------


def test_new_keys_of_a_dead_shard_wait_for_its_respawn():
    """A dead shard with respawn budget left keeps its keys: new keys
    it owns queue on it and flush through the respawned worker, at most
    one supervisor tick later.  None of them takes the fallback lane."""
    cluster = StudyCluster(shards=2)  # the default 0.5s supervisor tick
    universe = cheap_universe(12)
    victim = 0
    victim_specs = keys_for_shard(universe, cluster.router, victim)
    assert len(victim_specs) >= 2

    async def scenario():
        async with cluster:
            cluster.kill_worker(victim)
            for _ in range(500):  # wait for the EOF to land
                if cluster.stats.shard_crashes:
                    break
                await asyncio.sleep(0.01)
            return [
                await asyncio.wait_for(cluster.submit(s), timeout=60.0)
                for s in victim_specs
            ]

    results = run(scenario())
    assert [r.spec_name for r in results] == [s.name for s in victim_specs]
    assert cluster.stats.shard_crashes == 1
    assert cluster.stats.respawns == 1
    assert cluster.stats.fallbacks == 0
    assert cluster.stats.flights_by_shard[victim] == len(victim_specs)
    assert cluster.stats.flights_by_shard[1 - victim] == 0
    assert cluster.stats.failures == 0


def test_exhausted_respawn_budget_degrades_to_fallback_forever():
    cluster = StudyCluster(shards=2, max_respawns=0, **FAST)
    universe = cheap_universe(12)
    victim = 0
    victim_specs = keys_for_shard(universe, cluster.router, victim)
    assert len(victim_specs) >= 3
    survivor_spec = keys_for_shard(universe, cluster.router, 1 - victim)[0]

    async def scenario():
        async with cluster:
            cluster.kill_worker(victim)
            for _ in range(500):  # wait for the EOF to land
                if cluster.stats.shard_crashes:
                    break
                await asyncio.sleep(0.01)
            results = [
                await cluster.submit(s) for s in victim_specs[:3]
            ]
            survivor = await cluster.submit(survivor_spec)
            return cluster, results, survivor

    cluster, results, survivor = run(scenario())
    assert [r.spec_name for r in results] == [
        s.name for s in victim_specs[:3]
    ]
    # The surviving shard keeps serving its own keys while its sibling
    # is down: that flight crossed its pipe, not the fallback lane.
    assert survivor.spec_name == survivor_spec.name
    assert cluster.stats.flights_by_shard[1 - victim] == 1
    assert cluster.stats.flights_by_shard[victim] == 0
    assert cluster.stats.respawns == 0  # the budget is zero
    assert cluster.stats.fallbacks >= 3
    assert cluster.obs.metrics.value_of("serve.fallback_requests") >= 3
    assert cluster.stats.failures == 0


# -------------------------------- deadlines ----------------------------------
#
# These use the DEFAULT supervisor (3s wedge budget): the monkeypatched
# simulation sleeps 0.4s, far inside the default budget and far outside
# FAST's.


_slow_execute = deadline_scenarios.slow_execute


def test_waiter_side_deadline_is_typed_and_counted(monkeypatch):
    # The in-process twin runs the same scenario in test_service.py.
    monkeypatch.setattr(executor_mod, "_execute_spec", _slow_execute)
    deadline_scenarios.waiter_side_deadline_is_typed_and_counted(
        StudyCluster(shards=1)
    )


def test_worker_side_cancellation_of_an_expired_batchmate(monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_spec", _slow_execute)
    universe = cheap_universe(4)

    async def scenario():
        async with StudyCluster(shards=1) as cluster:
            # Occupy the worker (0.4s), then queue two slow batchmates
            # plus the doomed request so all three travel in ONE batch.
            # Its remaining budget on the wire is ~0.5s; the batchmates
            # burn 0.8s before the worker reaches it — the *worker*
            # cancels it, not the front end.
            first = asyncio.ensure_future(cluster.submit(universe[0]))
            await asyncio.sleep(0.05)  # the first batch is on the wire
            mates = [
                asyncio.ensure_future(cluster.submit(universe[1])),
                asyncio.ensure_future(cluster.submit(universe[2])),
            ]
            doomed = asyncio.ensure_future(
                cluster.submit(universe[3], deadline=0.9)
            )
            await first
            await asyncio.gather(*mates)
            with pytest.raises(DeadlineExceeded):
                await doomed
            return cluster

    cluster = run(scenario())
    # Proven worker-side: the worker's own cancellation counter moved.
    assert (
        cluster.obs.metrics.value_of("serve.shard.deadline_cancelled")
        >= 1
    )
    assert cluster.stats.deadline_exceeded >= 1
    # The cancelled spec was never executed.
    assert cluster.stats.executed == 3


def test_joiner_deadline_does_not_cancel_the_shared_flight(monkeypatch):
    # The in-process twin runs the same scenario in test_service.py.
    monkeypatch.setattr(executor_mod, "_execute_spec", _slow_execute)
    deadline_scenarios.joiner_deadline_does_not_cancel_the_shared_flight(
        StudyCluster(shards=1)
    )


def test_deadline_validation():
    async def scenario():
        async with StudyCluster(shards=1) as cluster:
            for bad in (0.0, float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    await cluster.submit(cheap_universe(1)[0], deadline=bad)
            return cluster

    cluster = run(scenario())
    assert cluster.stats.executed == 0  # a rejected request never runs


@pytest.mark.parametrize(
    "bad", [0.0, float("nan"), float("inf"), float("-inf")]
)
def test_heartbeat_interval_must_be_finite_and_positive(bad):
    """``asyncio.sleep(nan)`` never returns: a NaN or infinite tick
    would stop the supervisor, and no dead shard would be respawned."""
    with pytest.raises(ValueError, match="heartbeat_interval"):
        StudyCluster(shards=1, heartbeat_interval=bad)


@pytest.mark.parametrize("bad", [0, -1])
def test_workers_per_shard_below_one_is_refused_at_construction(bad):
    """Accepted, 0 would kill every worker on ``ExperimentExecutor(
    workers=0)`` and push its traffic to the fallback lane."""
    with pytest.raises(ValueError, match="workers_per_shard"):
        StudyCluster(shards=1, workers_per_shard=bad)


# --------------------------- drain-vs-death races ----------------------------


def _exit_instead_of_bye(conn, cfg):
    """A worker that dies silently on shutdown: no bye, just EOF."""
    while True:
        msg = conn.recv()
        if msg[0] == "shutdown":
            os._exit(0)
        if msg[0] == "ping":
            conn.send(("pong", msg[1]))


def test_drain_survives_a_worker_dying_instead_of_saying_bye(monkeypatch):
    monkeypatch.setattr(cluster_mod, "_worker_main", _exit_instead_of_bye)

    async def scenario():
        cluster = StudyCluster(shards=2, **FAST)
        await cluster.start()
        # No flights at all: drain goes straight to shutdown, and both
        # workers die without the bye handshake.  The EOF path must
        # settle the bye events or drain hangs forever.
        await asyncio.wait_for(cluster.drain(), timeout=60.0)
        return cluster

    cluster = run(scenario())
    assert cluster.stats.shard_crashes == 2  # both EOFs were deaths
    assert cluster.pending == 0


def test_death_during_drain_still_replays_in_flight_work(monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_spec", _slow_execute)
    universe = cheap_universe(2)

    async def scenario():
        cluster = StudyCluster(shards=1, **FAST_RESPAWN)
        await cluster.start()
        flights = [
            asyncio.ensure_future(cluster.submit(s)) for s in universe
        ]
        await asyncio.sleep(0.05)  # the first batch is on the wire
        drain = asyncio.ensure_future(cluster.drain())
        await asyncio.sleep(0.05)  # drain now waits on the flights
        cluster.kill_worker(0)
        # The supervisor must still heal mid-drain: respawn, replay,
        # then let the drain complete.  No flight may be lost.
        results = await asyncio.wait_for(
            asyncio.gather(*flights), timeout=60.0
        )
        await asyncio.wait_for(drain, timeout=60.0)
        return cluster, results

    cluster, results = run(scenario())
    assert {r.spec_name for r in results} == {s.name for s in universe}
    assert cluster.stats.respawns >= 1
    assert cluster.stats.replayed >= 1
    assert cluster.pending == 0


# ------------------------------ the chaos gate -------------------------------


def test_chaos_gate_digest_parity_and_zero_lost_requests(tmp_path):
    """The acceptance gate in miniature: kill 1 of 4 workers (-9) and
    wedge another mid-replay; the zipfian replay must complete with
    zero lost requests and a digest byte-identical to the calm run,
    with >= 1 respawn, and afterwards each victim shard must carry new
    flights through its respawned worker."""
    universe = cheap_universe(6)
    mix = ZipfianMix.build(universe, n_requests=40, s=1.1, seed=11)

    def arm(chaos, cache_dir):
        async def go():
            cluster = StudyCluster(
                shards=4, cache=True, cache_dir=str(cache_dir),
                max_pending=len(mix.universe), **FAST,
            )
            async with cluster:
                plan = (
                    ChaosPlan.build(
                        n_shards=4, n_requests=mix.n_requests,
                        kills=1, wedges=1, seed=11,
                    )
                    if chaos
                    else None
                )
                report = await run_load(
                    cluster, mix, concurrency=8, chaos=plan
                )
                ring = None
                if chaos:
                    ring = await drive_victims_to_ring(
                        cluster, {op.shard for op in plan.ops},
                        list(universe),
                    )
                return report, cluster, ring

        return run(go())

    calm_report, calm_cluster, _ = arm(False, tmp_path / "calm")
    chaos_report, chaos_cluster, (behind, probe_fallbacks) = arm(
        True, tmp_path / "chaos"
    )

    # Zero lost requests, zero errors, on both arms.
    assert calm_report.errors == 0
    assert chaos_report.errors == 0
    assert chaos_report.chaos_applied == 2
    assert all(p is not None for p in chaos_report.payloads)

    calm_board = scoreboard(calm_report, calm_cluster.stats.executed)
    chaos_board = scoreboard(chaos_report, chaos_cluster.stats.executed)
    # Byte-identical scoreboard digest, chaos vs calm.
    assert chaos_board["digest"] == calm_board["digest"]

    # Dedupe stays exact on the calm arm and within the fault budget
    # (2 chaos ops) on the chaos arm.
    distinct = mix.distinct_requested()
    assert calm_cluster.stats.executed == distinct
    assert abs(chaos_cluster.stats.executed - distinct) <= 2

    # The supervisor demonstrably healed: at least one respawn, and
    # every victim shard back on the ring through its respawned worker.
    assert chaos_cluster.stats.respawns >= 1
    assert behind == set()
    assert probe_fallbacks == 0
    assert calm_cluster.stats.respawns == 0
