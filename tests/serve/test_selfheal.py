"""The self-healing cluster: supervision, respawn, replay, degradation.

Every test drives real worker processes and real POSIX signals (SIGKILL
for deaths, SIGSTOP for wedges), so the assertions are the production
guarantees of ``self_heal=True``:

- a killed worker is respawned and its orphaned in-flight requests are
  replayed — callers never see :class:`ShardDown`, responses stay
  byte-identical;
- a *wedged* (alive but unresponsive) worker misses heartbeats, is
  killed by the supervisor and healed the same way;
- the per-shard circuit breaker opens on death and closes again after a
  successful half-open probe; while open (or once the respawn budget is
  exhausted) the shard's keys are served by the front-end fallback
  executor instead of failing;
- deadlines produce typed :class:`DeadlineExceeded` — waiter-side,
  worker-side (cancellation before execution), and for late joiners —
  without disturbing the shared flight;
- a shard dying *during drain* neither hangs the drain nor loses
  flights (the drain-vs-death race);
- the kill-worker chaos gate: a seeded zipfian replay with one worker
  killed -9 and one wedged mid-replay completes with zero lost
  requests and a scoreboard digest byte-identical to the calm run.

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
    ShardRouter,
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
#: detection within ~0.3s, breaker backoff 20-250ms.
FAST = dict(
    heartbeat_interval=0.05,
    heartbeat_misses=6,
    breaker_base_backoff=0.02,
    breaker_max_backoff=0.25,
)

#: Fast respawn ticks but an effectively disabled wedge detector, for
#: tests whose monkeypatched simulations sleep longer than any sane
#: heartbeat budget.
FAST_RESPAWN = dict(
    heartbeat_interval=0.05,
    heartbeat_misses=1000,
    breaker_base_backoff=0.02,
    breaker_max_backoff=0.25,
)


def cheap_universe(n):
    return default_universe(n, fig="fig3", nodes=4, sim_steps=1)


def keys_for_shard(universe, router, shard_id):
    return [
        s for s in universe
        if router.shard_for(spec_key(s)) == shard_id
    ]


def run(coro):
    return asyncio.run(coro)


async def drive_breaker_closed(cluster, specs, timeout=20.0):
    """Submit ring traffic until a dead shard's breaker has completed
    an open -> close cycle (bounded by wall clock)."""
    t_limit = time.monotonic() + timeout
    i = 0
    while (
        cluster.stats.breaker_closes < 1
        and time.monotonic() < t_limit
    ):
        await cluster.submit(specs[i % len(specs)])
        i += 1
        await asyncio.sleep(0.01)
    return cluster.stats.breaker_closes


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
    # Zero lost requests, zero ShardDown: every waiter got its result.
    assert {r.spec_name for r in results} == {s.name for s in universe}
    assert cluster.stats.shard_crashes >= 1
    assert cluster.stats.respawns >= 1
    assert cluster.stats.replayed >= 1
    assert cluster.stats.breaker_opens >= 1
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
    router = ShardRouter(2)
    universe = cheap_universe(8)
    victim = 0
    spec = keys_for_shard(universe, router, victim)[0]

    async def scenario():
        async with StudyCluster(
            shards=2, router=router, **FAST
        ) as cluster:
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


# -------------------------- breaker and degradation --------------------------


def test_breaker_opens_on_death_and_closes_after_recovery():
    router = ShardRouter(2)
    universe = cheap_universe(12)
    victim = 0
    victim_specs = keys_for_shard(universe, router, victim)
    assert len(victim_specs) >= 2

    async def scenario():
        async with StudyCluster(
            shards=2, router=router, **FAST
        ) as cluster:
            cluster.kill_worker(victim)
            closes = await drive_breaker_closed(cluster, victim_specs)
            return cluster, closes

    cluster, closes = run(scenario())
    assert cluster.stats.breaker_opens >= 1
    assert closes >= 1
    assert cluster.obs.metrics.value_of("serve.shard.breaker_opens") >= 1
    assert cluster.obs.metrics.value_of("serve.shard.breaker_closes") >= 1
    # While the breaker was open, traffic degraded instead of failing.
    assert cluster.stats.failures == 0


def test_exhausted_respawn_budget_degrades_to_fallback_forever():
    router = ShardRouter(2)
    universe = cheap_universe(12)
    victim = 0
    victim_specs = keys_for_shard(universe, router, victim)
    assert len(victim_specs) >= 3

    async def scenario():
        async with StudyCluster(
            shards=2, router=router, max_respawns=0, **FAST
        ) as cluster:
            cluster.kill_worker(victim)
            for _ in range(500):  # wait for the EOF to land
                if cluster.stats.shard_crashes:
                    break
                await asyncio.sleep(0.01)
            results = [
                await cluster.submit(s) for s in victim_specs[:3]
            ]
            return cluster, results

    cluster, results = run(scenario())
    assert [r.spec_name for r in results] == [
        s.name for s in victim_specs[:3]
    ]
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
    router = ShardRouter(1)

    async def scenario():
        async with StudyCluster(shards=1, router=router) as cluster:
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
    with >= 1 respawn and a full breaker open -> close cycle."""
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
                if chaos:
                    # Recovery-to-ring proof: keep the universe keys
                    # flowing until the opened breaker closes again.
                    await drive_breaker_closed(cluster, list(universe))
                return report, cluster

        return run(go())

    calm_report, calm_cluster = arm(False, tmp_path / "calm")
    chaos_report, chaos_cluster = arm(True, tmp_path / "chaos")

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

    # The supervisor demonstrably healed: at least one respawn and one
    # full breaker open -> close cycle.
    assert chaos_cluster.stats.respawns >= 1
    assert chaos_cluster.stats.breaker_opens >= 1
    assert chaos_cluster.stats.breaker_closes >= 1
    assert calm_cluster.stats.respawns == 0
