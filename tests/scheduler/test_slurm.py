"""Tests for the batch scheduler."""

import pytest

from repro.des import Environment
from repro.hardware import catalog
from repro.scheduler import (
    JobRequest,
    JobState,
    Partition,
    SchedulerError,
    SlurmScheduler,
)


def make_sched(spec=catalog.LENOX, max_nodes=None):
    env = Environment()
    part = Partition.whole_cluster(spec)
    if max_nodes is not None:
        part = Partition(
            name="limited",
            cluster=spec,
            node_ids=part.node_ids,
            max_nodes_per_job=max_nodes,
        )
    return env, SlurmScheduler(env, part)


def test_job_request_validation():
    with pytest.raises(ValueError):
        JobRequest(name="j", nodes=0, ntasks=1)
    with pytest.raises(ValueError):
        JobRequest(name="j", nodes=2, ntasks=1)
    with pytest.raises(ValueError):
        JobRequest(name="j", nodes=1, ntasks=1, cpus_per_task=0)
    job = JobRequest(name="j", nodes=4, ntasks=112, cpus_per_task=1)
    assert job.tasks_per_node == 28
    assert job.cores_needed_per_node() == 28


def test_immediate_allocation():
    env, sched = make_sched()
    job = JobRequest(name="cfd", nodes=2, ntasks=56)
    got = {}

    def submitter():
        alloc = yield sched.submit(job)
        got["alloc"] = alloc

    env.process(submitter())
    env.run()
    assert got["alloc"].node_ids == (0, 1)
    assert sched.state_of(job) is JobState.RUNNING
    assert sched.free_nodes == 2


def test_fifo_queueing_and_release():
    env, sched = make_sched()
    j1 = JobRequest(name="a", nodes=3, ntasks=3)
    j2 = JobRequest(name="b", nodes=3, ntasks=3)
    events = []

    def run_job(job, hold):
        alloc = yield sched.submit(job)
        events.append((job.name, "start", env.now))
        yield env.timeout(hold)
        sched.release(alloc)
        events.append((job.name, "end", env.now))

    env.process(run_job(j1, 10.0))
    env.process(run_job(j2, 5.0))
    env.run()
    assert events == [
        ("a", "start", 0.0),
        ("a", "end", 10.0),
        ("b", "start", 10.0),
        ("b", "end", 15.0),
    ]
    assert sched.free_nodes == 4


def test_small_job_not_backfilled_ahead():
    """Strict FIFO: a 1-node job behind a blocked 4-node job waits."""
    env, sched = make_sched()
    holder = JobRequest(name="hold", nodes=2, ntasks=2)
    big = JobRequest(name="big", nodes=4, ntasks=4)
    small = JobRequest(name="small", nodes=1, ntasks=1)
    starts = {}

    def run(job, hold):
        alloc = yield sched.submit(job)
        starts[job.name] = env.now
        yield env.timeout(hold)
        sched.release(alloc)

    def staged():
        env.process(run(holder, 5.0))
        yield env.timeout(0.1)
        env.process(run(big, 1.0))
        yield env.timeout(0.1)
        env.process(run(small, 1.0))

    env.process(staged())
    env.run()
    assert starts["big"] == pytest.approx(5.0)
    assert starts["small"] > starts["big"]


def test_oversized_job_rejected():
    env, sched = make_sched()
    with pytest.raises(SchedulerError, match="nodes"):
        sched.submit(JobRequest(name="x", nodes=5, ntasks=5))


def test_partition_limit_enforced():
    env, sched = make_sched(max_nodes=2)
    with pytest.raises(SchedulerError, match="limit"):
        sched.submit(JobRequest(name="x", nodes=3, ntasks=3))


def test_core_oversubscription_rejected():
    env, sched = make_sched()  # Lenox: 28 cores/node
    job = JobRequest(name="x", nodes=1, ntasks=28, cpus_per_task=2)
    with pytest.raises(SchedulerError, match="cores"):
        sched.submit(job)


def test_cancel_pending():
    env, sched = make_sched()
    j1 = JobRequest(name="a", nodes=4, ntasks=4)
    j2 = JobRequest(name="b", nodes=4, ntasks=4)

    def run(job):
        alloc = yield sched.submit(job)
        yield env.timeout(1)
        sched.release(alloc)

    def staged():
        env.process(run(j1))
        yield env.timeout(0.1)
        sched.submit(j2)
        sched.cancel(j2)

    env.process(staged())
    env.run()
    assert sched.state_of(j2) is JobState.CANCELLED
    assert sched.queue_length == 0


def test_release_requires_running():
    env, sched = make_sched()
    job = JobRequest(name="x", nodes=1, ntasks=1)
    from repro.scheduler.jobs import Allocation

    with pytest.raises(SchedulerError):
        sched.release(Allocation(job=job, node_ids=(0,), granted_at=0.0))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(name="bad", cluster=catalog.LENOX, node_ids=())
    with pytest.raises(ValueError):
        Partition(name="bad", cluster=catalog.LENOX, node_ids=(99,))


def test_fig3_job_shapes_valid_on_mn4():
    """All Fig. 3 node counts produce valid MN4 jobs (48 ranks/node)."""
    env, sched = make_sched(catalog.MARENOSTRUM4)
    for nodes in (4, 8, 16, 32, 64, 128, 256):
        job = JobRequest(name=f"fsi-{nodes}", nodes=nodes, ntasks=48 * nodes)
        sched.validate(job)
    assert 48 * 256 == 12288
