"""Concurrency contract of the single-flight study service.

The assertions here are the serving layer's load-bearing guarantees:

- N concurrent identical requests execute exactly one simulation (seen
  through the executor's ``executed`` stat / ``exec.submits`` counter)
  and every response carries a byte-identical result payload;
- distinct requests share batches but never block each other's
  completion;
- queue-full rejection is deterministic (admission counts unique
  in-flight specs, not raw requests) and carries a ``retry_after`` hint;
- :meth:`~repro.serve.service.StudyService.drain` completes everything
  admitted while refusing new admissions.

Timing-sensitive behaviour is pinned with a :class:`GateExecutor` whose
``run_many`` blocks on an explicit gate — nothing here sleeps and hopes.
"""

import asyncio
import json
import threading

import pytest

import repro.exec.executor as executor_mod
from repro.core.metrics import ExperimentResult
from repro.exec import ExecStats, ExperimentExecutor, FailedPoint, spec_key
from repro.serve import (
    DeadlineExceeded,
    Overloaded,
    RequestFailed,
    ServeStats,
    ServiceClosed,
    StudyService,
    build_spec,
)
from tests.serve import deadline_scenarios


def small_spec(nodes=2, steps=1, runtime=None):
    return build_spec("fig1", runtime=runtime, nodes=nodes, sim_steps=steps)


def canned_result(spec) -> ExperimentResult:
    return ExperimentResult(
        spec_name=spec.name,
        runtime_name=spec.runtime_name,
        cluster_name=spec.cluster.name,
        n_nodes=spec.n_nodes,
        total_ranks=spec.n_nodes * spec.ranks_per_node,
        threads_per_rank=spec.threads_per_rank,
        avg_step_seconds=0.1,
        elapsed_seconds=1.5,
    )


class GateExecutor:
    """Executor stub whose ``run_many`` blocks until the test says go.

    Records every batch (as spec names) for shape assertions and keeps
    real :class:`ExecStats` so the service's accounting lines up.
    """

    def __init__(self, gate: "threading.Event | None" = None,
                 fail_specs=()):
        self.gate = gate
        self.fail_specs = set(fail_specs)
        self.batches: list[list[str]] = []
        self.stats = ExecStats()

    def run_many(self, specs, obs=None):
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never opened"
        self.batches.append([s.name for s in specs])
        out = []
        for s in specs:
            self.stats.submitted += 1
            if s.name in self.fail_specs:
                self.stats.failures += 1
                out.append(FailedPoint(
                    spec_name=s.name, key=spec_key(s),
                    error_type="RankFailure", error="injected", attempts=1,
                ))
            else:
                self.stats.executed += 1
                out.append(canned_result(s))
        return out


# -- single-flight -----------------------------------------------------------

def test_identical_burst_executes_exactly_once():
    """64 concurrent identical requests -> one simulation, 64 responses,
    all byte-identical."""
    executor = ExperimentExecutor(workers=1, keep_going=True)
    service = StudyService(executor=executor, max_pending=64)
    spec = small_spec()

    async def burst():
        async with service:
            return await asyncio.gather(
                *(service.submit(spec) for _ in range(64))
            )

    results = asyncio.run(burst())
    assert len(results) == 64
    assert executor.stats.executed == 1
    assert executor.stats.submitted == 1
    assert service.stats.requests == 64
    assert service.stats.dedup_hits == 63
    assert service.stats.flights == 1
    blobs = {
        json.dumps(r.to_json_dict(), sort_keys=True) for r in results
    }
    assert len(blobs) == 1, "responses must be byte-identical"
    # End-to-end observability: the executor's submit marker merged in,
    # and every request got a latency observation + span.
    assert service.obs.metrics.get("exec.submits").value == 1
    assert service.obs.metrics.get("serve.requests").value == 64
    assert service.obs.metrics.get("serve.dedup_hits").value == 63
    assert service.obs.metrics.get("serve.request_seconds").count == 64
    serve_spans = service.obs.spans.by_category("serve")
    assert len(serve_spans) == 64
    assert sum(1 for s in serve_spans if s.attrs["deduped"]) == 63


def test_flight_retires_after_completion():
    """Single-flight dedupes *concurrent* requests only: a request after
    completion opens a fresh flight (the result cache's job, not ours)."""
    executor = GateExecutor()
    service = StudyService(executor=executor)
    spec = small_spec()

    async def sequential():
        async with service:
            await service.submit(spec)
            await service.submit(spec)

    asyncio.run(sequential())
    assert executor.stats.executed == 2
    assert service.stats.dedup_hits == 0
    assert service.pending == 0


def test_distinct_requests_do_not_block_each_other():
    executor = GateExecutor()
    service = StudyService(executor=executor, max_batch=8)
    specs = [small_spec(nodes=n) for n in (1, 2, 3, 4)]

    async def mixed():
        async with service:
            return await asyncio.gather(
                *(service.submit(s) for s in specs)
            )

    results = asyncio.run(mixed())
    assert [r.spec_name for r in results] == [s.name for s in specs]
    assert executor.stats.executed == 4
    assert service.stats.dedup_hits == 0
    # They arrived in one loop iteration -> one executor submission.
    assert len(executor.batches) == 1
    assert sorted(executor.batches[0]) == sorted(s.name for s in specs)


def test_max_batch_splits_submissions():
    executor = GateExecutor()
    service = StudyService(executor=executor, max_batch=2)
    specs = [small_spec(nodes=2, steps=n) for n in (1, 2, 3, 4, 5)]

    async def mixed():
        async with service:
            await asyncio.gather(*(service.submit(s) for s in specs))

    asyncio.run(mixed())
    assert sum(len(b) for b in executor.batches) == 5
    assert all(len(b) <= 2 for b in executor.batches)
    assert service.stats.batches == len(executor.batches)


# -- admission control -------------------------------------------------------

def test_queue_full_rejection_is_deterministic():
    gate = threading.Event()
    executor = GateExecutor(gate=gate)
    service = StudyService(
        executor=executor, max_pending=2, max_batch=1
    )

    async def scenario():
        async with service:
            t1 = asyncio.ensure_future(service.submit(small_spec(nodes=1)))
            t2 = asyncio.ensure_future(service.submit(small_spec(nodes=2)))
            await asyncio.sleep(0)  # both flights admitted, gate shut
            assert service.pending == 2
            # A new unique spec must be rejected, every time.
            for _ in range(3):
                with pytest.raises(Overloaded) as exc_info:
                    await service.submit(small_spec(nodes=3))
                assert exc_info.value.retry_after > 0
            # Piggybacking on an in-flight spec is always admitted.
            t3 = asyncio.ensure_future(service.submit(small_spec(nodes=1)))
            await asyncio.sleep(0)
            gate.set()
            return await asyncio.gather(t1, t2, t3)

    r1, r2, r3 = asyncio.run(scenario())
    assert service.stats.rejected == 3
    assert service.obs.metrics.get("serve.rejected").value == 3
    assert service.stats.dedup_hits == 1
    assert r1.spec_name == r3.spec_name
    assert executor.stats.executed == 2


def test_rejected_request_succeeds_on_retry_after_drain_of_backlog():
    gate = threading.Event()
    executor = GateExecutor(gate=gate)
    service = StudyService(
        executor=executor, max_pending=1, max_batch=1
    )

    async def scenario():
        async with service:
            t1 = asyncio.ensure_future(service.submit(small_spec(nodes=1)))
            await asyncio.sleep(0)
            with pytest.raises(Overloaded):
                await service.submit(small_spec(nodes=2))
            gate.set()
            await t1
            # Backlog cleared -> the retry is admitted.
            r2 = await service.submit(small_spec(nodes=2))
            return r2

    r2 = asyncio.run(scenario())
    assert r2.n_nodes == 2
    assert service.stats.rejected == 1
    assert executor.stats.executed == 2


# -- drain / shutdown --------------------------------------------------------

def test_drain_completes_inflight_and_refuses_new_admissions():
    gate = threading.Event()
    executor = GateExecutor(gate=gate)
    service = StudyService(executor=executor, max_batch=4)

    async def scenario():
        t1 = asyncio.ensure_future(service.submit(small_spec(nodes=1)))
        t2 = asyncio.ensure_future(service.submit(small_spec(nodes=2)))
        await asyncio.sleep(0)
        drain = asyncio.ensure_future(service.drain())
        await asyncio.sleep(0)  # drain has flipped the admission flag
        with pytest.raises(ServiceClosed):
            await service.submit(small_spec(nodes=3))
        gate.set()
        await drain
        # Everything admitted before the drain resolved normally.
        r1, r2 = await asyncio.gather(t1, t2)
        with pytest.raises(ServiceClosed):
            await service.submit(small_spec(nodes=4))
        return r1, r2

    r1, r2 = asyncio.run(scenario())
    assert (r1.n_nodes, r2.n_nodes) == (1, 2)
    assert service.pending == 0
    assert executor.stats.executed == 2


def test_drain_is_idempotent_and_safe_on_idle_service():
    service = StudyService(executor=GateExecutor())

    async def scenario():
        await service.drain()
        await service.drain()
        with pytest.raises(ServiceClosed):
            await service.submit(small_spec())

    asyncio.run(scenario())


# -- failures ----------------------------------------------------------------

def test_failed_point_raises_request_failed_for_every_waiter():
    spec = small_spec(nodes=3)
    executor = GateExecutor(fail_specs={spec.name})
    service = StudyService(executor=executor)

    async def scenario():
        async with service:
            outcomes = await asyncio.gather(
                *(service.submit(spec) for _ in range(4)),
                return_exceptions=True,
            )
        return outcomes

    outcomes = asyncio.run(scenario())
    assert all(isinstance(o, RequestFailed) for o in outcomes)
    assert all(o.point is not None for o in outcomes)
    assert service.stats.failures == 4
    assert service.obs.metrics.get("serve.failures").value == 4
    assert executor.stats.executed == 0


def test_failing_spec_does_not_poison_batchmates():
    bad = small_spec(nodes=3)
    good = small_spec(nodes=2)
    executor = GateExecutor(fail_specs={bad.name})
    service = StudyService(executor=executor, max_batch=4)

    async def scenario():
        async with service:
            return await asyncio.gather(
                service.submit(bad), service.submit(good),
                return_exceptions=True,
            )

    bad_out, good_out = asyncio.run(scenario())
    assert isinstance(bad_out, RequestFailed)
    assert isinstance(good_out, ExperimentResult)
    assert len(executor.batches) == 1  # they really shared a batch


# -- deadlines ---------------------------------------------------------------
#
# The waiter-side and joiner scenarios are shared with the sharded
# backend (test_selfheal.py runs them against a StudyCluster).


def _uncached_service():
    return StudyService(
        executor=ExperimentExecutor(workers=1, keep_going=True)
    )


def test_waiter_side_deadline_in_process(monkeypatch):
    monkeypatch.setattr(
        executor_mod, "_execute_spec", deadline_scenarios.slow_execute
    )
    deadline_scenarios.waiter_side_deadline_is_typed_and_counted(
        _uncached_service()
    )


def test_joiner_deadline_does_not_cancel_the_flight_in_process(monkeypatch):
    monkeypatch.setattr(
        executor_mod, "_execute_spec", deadline_scenarios.slow_execute
    )
    deadline_scenarios.joiner_deadline_does_not_cancel_the_shared_flight(
        _uncached_service()
    )


def test_deadline_lapsing_in_the_queue_is_never_executed():
    """A flight whose budget lapses while it queues behind a gated batch
    is expired at flush: every waiter (a deadline-free joiner too) gets
    DeadlineExceeded, and the executor never sees the spec."""
    gate = threading.Event()
    executor = GateExecutor(gate=gate)
    service = StudyService(executor=executor)
    blocker, doomed = small_spec(nodes=1), small_spec(nodes=2)

    async def scenario():
        async with service:
            first = asyncio.ensure_future(service.submit(blocker))
            await asyncio.sleep(0.01)  # its batch is out, held by the gate
            joiner = asyncio.ensure_future(service.submit(doomed))
            with pytest.raises(DeadlineExceeded):
                await service.submit(doomed, deadline=0.05)
            gate.set()
            with pytest.raises(DeadlineExceeded):
                await joiner
            return await first

    result = asyncio.run(scenario())
    assert result.spec_name == blocker.name
    assert executor.batches == [[blocker.name]]
    assert service.stats.deadline_exceeded == 2
    assert service.stats.executed == 1
    assert service.pending == 0


def test_deadline_validation_in_process():
    service = StudyService(executor=GateExecutor())

    async def scenario():
        async with service:
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    await service.submit(small_spec(), deadline=bad)

    asyncio.run(scenario())
    assert service.stats.flights == 0


# -- stats -------------------------------------------------------------------

def test_latency_percentiles_nearest_rank():
    stats = ServeStats(latencies=[0.01 * i for i in range(1, 101)])
    assert stats.percentile(50) == pytest.approx(0.50)
    assert stats.percentile(95) == pytest.approx(0.95)
    assert stats.percentile(99) == pytest.approx(0.99)
    assert stats.percentile(100) == pytest.approx(1.00)
    assert ServeStats().percentile(50) == 0.0
    with pytest.raises(ValueError):
        stats.percentile(101)


def test_service_parameter_validation():
    with pytest.raises(ValueError):
        StudyService(executor=GateExecutor(), max_pending=0)
    with pytest.raises(ValueError):
        StudyService(executor=GateExecutor(), max_batch=0)
