"""Tests for MpiJob, run_spmd, MpiPerf, and the OpenMP model."""

import pytest

from repro.hardware import catalog
from repro.hardware.network import NetworkPath
from repro.mpi import collectives
from repro.mpi.launcher import MpiJob, run_spmd
from repro.mpi.perf import MpiPerf
from repro.openmp.model import OpenMPModel


def test_mpi_job_result(make_comm):
    env, comm = make_comm(4, 2)

    def body(c, rank):
        yield from collectives.allreduce(c, rank, op=1, nbytes=100)
        return rank * 10

    job = MpiJob(comm, body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    res = holder["res"]
    assert res.elapsed_seconds > 0
    assert res.rank_results == [0, 10, 20, 30]
    assert res.messages_sent == 8  # 4 ranks * log2(4)
    assert res.bytes_sent == 800


def test_launch_overhead_delays_start(make_comm):
    env, comm = make_comm(2, 1)
    starts = []

    def body(c, rank):
        starts.append(env.now)
        yield env.timeout(0)

    procs = run_spmd(comm, body, launch_overhead=0.5)
    env.run(until=env.all_of(procs))
    assert all(s == pytest.approx(0.5) for s in starts)


def test_perf_native_vs_fallback_latency():
    native = MpiPerf.for_fabric(catalog.MARENOSTRUM4.fabric, NetworkPath.HOST_NATIVE)
    fallback = MpiPerf.for_fabric(
        catalog.MARENOSTRUM4.fabric, NetworkPath.TCP_FALLBACK
    )
    assert fallback.message_latency(False) > 10 * native.message_latency(False)
    # Intra-node is path-independent (shared memory).
    assert fallback.message_latency(True) == native.message_latency(True)


def test_perf_zero_contention_time_monotone_in_bytes():
    perf = MpiPerf.for_fabric(catalog.LENOX.fabric, NetworkPath.HOST_NATIVE)
    assert perf.zero_contention_time(1e6, False) > perf.zero_contention_time(
        1e3, False
    )


# ------------------------------- OpenMP -------------------------------------


def test_openmp_single_thread_identity():
    m = OpenMPModel()
    assert m.threaded_time(10.0, 1) == 10.0


def test_openmp_speedup_monotone_until_saturation():
    m = OpenMPModel(bandwidth_cores=8)
    t = [m.threaded_time(10.0, k) for k in (1, 2, 4, 8)]
    assert t[0] > t[1] > t[2] > t[3]


def test_openmp_bandwidth_saturation_limits_speedup():
    m = OpenMPModel(bandwidth_cores=4, memory_bound_fraction=1.0,
                    parallel_fraction=1.0, regions_per_step=0, imbalance=0.0)
    t4 = m.threaded_time(10.0, 4)
    t16 = m.threaded_time(10.0, 16)
    assert t16 == pytest.approx(t4, rel=0.01)  # no gain past saturation


def test_openmp_amdahl_limit():
    m = OpenMPModel(parallel_fraction=0.5, regions_per_step=0,
                    imbalance=0.0, memory_bound_fraction=0.0)
    # Infinite threads -> at best 2x.
    assert m.threaded_time(10.0, 1000) > 4.9


def test_openmp_fork_join_overhead_grows_with_threads():
    m = OpenMPModel(fork_join_cost=1e-3, regions_per_step=10)
    # Overhead term: 10 regions * 1ms * threads.
    t2 = m.threaded_time(1.0, 2)
    t14 = m.threaded_time(1.0, 14)
    assert t14 > 0.1  # overhead dominates at 14 threads


def test_openmp_validation():
    with pytest.raises(ValueError):
        OpenMPModel(parallel_fraction=1.5)
    with pytest.raises(ValueError):
        OpenMPModel(bandwidth_cores=0)
    m = OpenMPModel()
    with pytest.raises(ValueError):
        m.threaded_time(-1, 2)
    with pytest.raises(ValueError):
        m.threaded_time(1, 0)
    with pytest.raises(ValueError):
        m.effective_speedup(0)
