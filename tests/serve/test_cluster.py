"""The sharded study cluster: global single-flight across processes.

Everything here drives real worker processes (fork-inherited
monkeypatches stand in for fault injection), so the assertions are the
cluster's production guarantees:

- concurrent identical requests execute once *cluster-wide* and every
  caller gets a byte-identical payload;
- repeats of an already-served spec are L1 hits in the worker it was
  placed on — still exactly one execution per spec per cluster
  lifetime;
- a 4-shard cluster is byte-identical to the single-process
  :class:`StudyService` on the same seeded zipfian mix, with exact
  global dedupe (the parity satellite);
- a key's first flight goes to the least-loaded healthy shard (its
  ring owner on ties) and every repeat stays there, so admission
  refuses a new key only when every healthy shard is full;
- worker-side ``serve.shard.*`` metrics fold into the front end's
  registry at drain.
"""

import asyncio
import json
import multiprocessing as mp

import pytest

import repro.exec.executor as executor_mod
from repro.exec import ExperimentExecutor, spec_key
from repro.serve import (
    Overloaded,
    RequestFailed,
    ServiceClosed,
    StudyCluster,
    StudyService,
    ZipfianMix,
    build_spec,
    default_universe,
    run_load,
    scoreboard,
)

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="cluster tests rely on fork-inherited monkeypatches",
)

_real_execute = executor_mod._execute_spec


def cheap_spec(sim_steps=1):
    """A MareNostrum4 FSI probe: ~10ms of real simulation."""
    return build_spec("fig3", nodes=4, sim_steps=sim_steps)


def cheap_universe(n):
    return default_universe(n, fig="fig3", nodes=4, sim_steps=1)


def run(coro):
    return asyncio.run(coro)


# --------------------------- global single-flight ----------------------------


def test_concurrent_duplicates_execute_once_cluster_wide():
    spec = cheap_spec()

    async def scenario():
        async with StudyCluster(shards=3) as cluster:
            results = await asyncio.gather(
                *(cluster.submit(spec) for _ in range(8))
            )
            return cluster, results

    cluster, results = run(scenario())
    blobs = {json.dumps(r.to_json_dict(), sort_keys=True) for r in results}
    assert len(blobs) == 1  # byte-identical payloads for every waiter
    assert cluster.stats.requests == 8
    assert cluster.stats.dedup_hits == 7
    assert cluster.stats.executed == 1  # summed from workers at drain
    assert cluster.stats.shard_crashes == 0
    # All 8 joins counted against the one owning shard.
    assert sorted(cluster.stats.requests_by_shard) == [0, 0, 8]


def test_sequential_repeats_hit_the_worker_l1():
    spec = cheap_spec()

    async def scenario():
        async with StudyCluster(shards=2) as cluster:
            first = await cluster.submit(spec)
            second = await cluster.submit(spec)
            return cluster, first, second

    cluster, first, second = run(scenario())
    assert first.to_json_dict() == second.to_json_dict()
    assert cluster.stats.executed == 1
    assert cluster.stats.l1_hits >= 1
    assert cluster.stats.dedup_hits == 0  # not concurrent: L1, not a join


def test_distinct_specs_spread_and_all_complete():
    universe = cheap_universe(8)

    async def scenario():
        async with StudyCluster(shards=4) as cluster:
            results = await asyncio.gather(
                *(cluster.submit(s) for s in universe)
            )
            return cluster, results

    cluster, results = run(scenario())
    assert len(results) == 8
    assert cluster.stats.executed == 8
    by_name = {r.spec_name for r in results}
    assert by_name == {s.name for s in universe}
    assert sum(cluster.stats.requests_by_shard) == 8


# ------------------------------ parity satellite -----------------------------


def test_cluster_matches_single_service_on_zipfian_mix():
    """4 shards vs one in-process service, same seeded mix: byte-equal
    payloads, equal scoreboard digests, exact global dedupe counts."""
    mix = ZipfianMix.build(cheap_universe(6), n_requests=40, s=1.1, seed=7)

    async def service_arm():
        service = StudyService(
            executor=ExperimentExecutor(workers=1, l1=True, keep_going=True),
            max_pending=len(mix.universe),
        )
        async with service:
            report = await run_load(service, mix, concurrency=16)
        return report, service.executor.stats.executed

    async def cluster_arm():
        cluster = StudyCluster(shards=4, max_pending=len(mix.universe))
        async with cluster:
            report = await run_load(cluster, mix, concurrency=16)
        return report, cluster

    service_report, service_executed = run(service_arm())
    cluster_report, cluster = run(cluster_arm())

    assert cluster_report.errors == 0 and service_report.errors == 0
    # Byte parity, request by request.
    assert cluster_report.payloads == service_report.payloads
    # Exact global dedupe: one execution per distinct requested spec.
    assert service_executed == mix.distinct_requested()
    assert cluster.stats.executed == mix.distinct_requested()
    # And therefore identical deterministic scoreboards.
    service_board = scoreboard(service_report, service_executed)
    cluster_board = scoreboard(
        cluster_report, cluster.stats.executed,
        per_shard=cluster.stats.requests_by_shard,
    )
    assert cluster_board["digest"] == service_board["digest"]
    assert cluster_board["dedupe"] == service_board["dedupe"]


# ------------------------- admission and lifecycle ---------------------------


def same_owner_specs(router, n, universe_size=12):
    """``n`` cheap specs whose keys share one ring owner, and that owner."""
    by_shard = {}
    for s in cheap_universe(universe_size):
        by_shard.setdefault(router.shard_for(spec_key(s)), []).append(s)
    owner, specs = max(by_shard.items(), key=lambda kv: len(kv[1]))
    assert len(specs) >= n
    return owner, specs[:n]


def test_overload_refuses_new_keys_only_when_every_healthy_shard_is_full():
    cluster = StudyCluster(shards=2, max_pending=1)
    owner, specs = same_owner_specs(cluster.router, 4)
    other = 1 - owner

    async def scenario():
        async with cluster:
            # Rule 1: a new key goes to whichever shard has room, and is
            # refused only once every healthy shard is full.
            first = asyncio.ensure_future(cluster.submit(specs[0]))
            await asyncio.sleep(0)  # specs[0] fills its owner
            second = asyncio.ensure_future(cluster.submit(specs[1]))
            await asyncio.sleep(0)  # specs[1] takes the other shard
            with pytest.raises(Overloaded) as exc_info:
                await cluster.submit(specs[2])
            assert exc_info.value.retry_after > 0
            assert exc_info.value.pending == 1
            await asyncio.gather(first, second)
            # Rule 2: a placed key is refused while its own shard is
            # full, even though the other shard has room.
            third = asyncio.ensure_future(cluster.submit(specs[2]))
            await asyncio.sleep(0)  # idle cluster: specs[2] -> owner
            with pytest.raises(Overloaded) as exc_info:
                await cluster.submit(specs[0])  # placed on the owner
            assert exc_info.value.pending == 1
            await cluster.submit(specs[3])  # a new key: the free shard
            await third
            return cluster

    cluster = run(scenario())
    assert cluster.stats.rejected == 2
    # Admitted flights: specs[0] and specs[2] on the owner, specs[1]
    # and specs[3] on the other shard.
    assert cluster.stats.flights_by_shard[owner] == 2
    assert cluster.stats.flights_by_shard[other] == 2
    assert cluster.stats.executed == 4


# --------------------------------- placement ---------------------------------


def test_new_keys_spread_over_shards_and_repeats_stay_put():
    # Every key has the same ring owner; routing by the ring alone would
    # send all of them to one shard.
    cluster = StudyCluster(shards=2, cache=False)
    _, specs = same_owner_specs(cluster.router, 5)

    async def scenario():
        async with cluster:
            await asyncio.gather(*(cluster.submit(s) for s in specs))
            first_pass = (cluster.stats.executed, cluster.stats.l1_hits)
            # One at a time on an idle cluster: the ring owner would win
            # every tie, so only the recorded placement finds the L1s.
            for s in specs:
                await cluster.submit(s)
            return cluster, first_pass

    cluster, (executed, l1_hits) = run(scenario())
    assert all(n > 0 for n in cluster.stats.flights_by_shard)
    assert executed == len(specs)  # one execution per distinct key
    assert l1_hits == 0
    # The second pass found every key on the shard it was placed on.
    assert cluster.stats.executed == len(specs)
    assert cluster.stats.l1_hits == len(specs)
    assert cluster.stats.l2_hits == 0


def test_keys_submitted_one_at_a_time_land_on_their_ring_owners():
    cluster = StudyCluster(shards=2)
    universe = cheap_universe(8)
    owners = [cluster.router.shard_for(spec_key(s)) for s in universe]
    assert set(owners) == {0, 1}

    async def scenario():
        async with cluster:
            for s in universe:
                await cluster.submit(s)  # every shard idle: owner wins
            return cluster

    cluster = run(scenario())
    assert cluster.stats.flights_by_shard == [
        owners.count(0), owners.count(1)
    ]


def test_submit_after_drain_raises_service_closed():
    async def scenario():
        cluster = StudyCluster(shards=2)
        async with cluster:
            await cluster.submit(cheap_spec())
        with pytest.raises(ServiceClosed):
            await cluster.submit(cheap_spec())
        await cluster.drain()  # idempotent
        return cluster

    cluster = run(scenario())
    assert cluster.stats.requests == 2  # the refused one still counted


def test_submit_before_start_is_an_error():
    async def scenario():
        cluster = StudyCluster(shards=2)
        with pytest.raises(RuntimeError, match="before start"):
            await cluster.submit(cheap_spec())

    run(scenario())


# ------------------------------ failure paths --------------------------------


def _fail_fig3(spec, with_obs):
    if spec.cluster.name == "MareNostrum4":
        raise ValueError("synthetic deterministic failure")
    return _real_execute(spec, with_obs)


def test_simulation_failure_propagates_as_request_failed(monkeypatch):
    # Fork inherits the patched module, so every worker fails fig3 too.
    monkeypatch.setattr(executor_mod, "_execute_spec", _fail_fig3)

    async def scenario():
        async with StudyCluster(shards=2) as cluster:
            ok = await cluster.submit(build_spec("fig1", nodes=2))
            with pytest.raises(RequestFailed) as exc_info:
                await cluster.submit(cheap_spec())
            return cluster, ok, exc_info.value

    cluster, ok, failure = run(scenario())
    assert ok.spec_name.startswith("serve-fig1")
    assert failure.point.error_type == "ValueError"
    assert "synthetic" in failure.point.error
    assert cluster.stats.failures == 1
    # A failed spec is never memoised: the drain is clean regardless.
    assert cluster.stats.shard_crashes == 0


# ------------------------------- observability -------------------------------


def test_worker_metrics_fold_into_front_end_registry():
    universe = cheap_universe(5)

    async def scenario():
        async with StudyCluster(shards=2) as cluster:
            await asyncio.gather(*(cluster.submit(s) for s in universe))
            await cluster.submit(universe[0])  # an L1 repeat
            return cluster

    cluster = run(scenario())
    dump = cluster.obs.metrics.to_dict()
    assert dump["serve.cluster.shards"]["value"] == 2
    # Worker-side counters, summed across both shards at drain.
    assert dump["serve.shard.requests"]["value"] == 6
    assert dump["serve.shard.executed"]["value"] == 5
    assert dump["serve.shard.l1_hits"]["value"] == 1
    assert dump["serve.shard.failures"]["value"] == 0
    # Front-end view of the same traffic.
    assert dump["serve.requests"]["value"] == 6
    assert dump["serve.cluster.load_max"]["value"] >= \
        dump["serve.cluster.load_min"]["value"]
    assert cluster.stats.l1_hits == 1
    assert cluster.stats.balance_ratio() >= 1.0
