"""Cross-cutting property-based tests (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.packages import PACKAGE_DB, installed_size
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.cpu import Architecture
from repro.hardware.network import NetworkPath
from repro.mpi.comm import SimComm
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.openmp.model import OpenMPModel


# ----------------------------- DES clock order --------------------------------


@given(
    delays=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_des_clock_is_monotone(delays):
    """No process ever observes time going backwards, whatever the
    interleaving of timeouts."""
    env = Environment()
    observations = []

    def proc(seq):
        for d in seq:
            yield env.timeout(d)
            observations.append(env.now)

    for seq in delays:
        env.process(proc(seq))
    env.run()
    # Global event order must be non-decreasing in time.
    assert observations == sorted(observations)
    assert env.now == pytest.approx(max(sum(s) for s in delays))


# -------------------------- byte conservation ----------------------------------


@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=10
    )
)
@settings(max_examples=40, deadline=None)
def test_property_internode_bytes_hit_both_nics(sizes):
    """Every inter-node byte (plus protocol overhead) crosses exactly one
    tx and one rx pipe."""
    env = Environment()
    cluster = Cluster(env, catalog.LENOX, num_nodes=2)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(catalog.LENOX.fabric, NetworkPath.HOST_NATIVE)
    comm = SimComm(env, cluster, RankMap(2, 2), perf)

    def sender(c, r):
        for i, size in enumerate(sizes):
            yield from c.send(0, 1, tag=i, nbytes=size)

    def receiver(c, r):
        for i in range(len(sizes)):
            yield c.recv(1, 0, i)

    env.process(sender(comm, 0))
    env.process(receiver(comm, 1))
    env.run()
    expected = sum(sizes) * perf.inter.per_byte_overhead
    tx = cluster.nodes[0].nic_tx.bytes_carried
    rx = cluster.nodes[1].nic_rx.bytes_carried
    assert tx == pytest.approx(expected, rel=1e-9)
    assert rx == pytest.approx(expected, rel=1e-9)


# ------------------------------ OpenMP model -----------------------------------


@given(
    serial=st.floats(min_value=1e-3, max_value=100.0),
    threads=st.integers(min_value=1, max_value=48),
)
@settings(max_examples=80, deadline=None)
def test_property_threading_never_exceeds_serial_much(serial, threads):
    """Threaded time is bounded: never worse than serial plus the
    fork-join overhead, never better than perfect speedup."""
    m = OpenMPModel()
    t = m.threaded_time(serial, threads)
    overhead = m.regions_per_step * m.fork_join_cost * threads
    assert t <= serial + overhead + 1e-12
    assert t >= serial / threads - 1e-12


@given(serial=st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_property_threading_monotone_in_saturation_region(serial):
    """Below the bandwidth knee, more threads never hurt (for realistic
    fork-join costs relative to the work)."""
    m = OpenMPModel(fork_join_cost=1e-7, bandwidth_cores=64)
    times = [m.threaded_time(serial, k) for k in (1, 2, 4, 8, 16)]
    assert all(b <= a * 1.0001 for a, b in zip(times, times[1:]))


# ------------------------------ work model --------------------------------------


@given(
    n_cells=st.integers(min_value=10_000, max_value=10**8),
    parts=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=60, deadline=None)
def test_property_workmodel_scaling_identities(n_cells, parts):
    wm = AlyaWorkModel(case=CaseKind.CFD, n_cells=n_cells)
    # Total work is conserved up to the imbalance factor.
    per_part = wm.step_flops_per_part(parts)
    total_serial = wm.step_flops_per_part(1) / 1.05
    assert per_part == pytest.approx(total_serial * 1.05 / parts)
    # Halo per part shrinks strictly slower than volume (2/3 power).
    if parts >= 2:
        assert wm.halo_cells(parts) > wm.halo_cells(1) / parts


@given(parts=st.integers(min_value=2, max_value=1024))
@settings(max_examples=40, deadline=None)
def test_property_surface_to_volume_grows_with_parts(parts):
    """Communication-to-computation ratio rises with the part count —
    the root cause of every strong-scaling ceiling in the paper."""
    wm = AlyaWorkModel(case=CaseKind.CFD, n_cells=10**7)
    ratio_few = wm.halo_bytes_main(2) / wm.step_flops_per_part(2)
    ratio_many = wm.halo_bytes_main(parts) / wm.step_flops_per_part(parts)
    if parts > 2:
        assert ratio_many > ratio_few


# ------------------------------ image sizes -------------------------------------


@given(
    extra=st.sets(
        st.sampled_from(sorted(set(PACKAGE_DB) - {"centos7-base"})),
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_installed_size_monotone(extra):
    """Adding packages never shrinks the image."""
    base = installed_size(["centos7-base"], Architecture.X86_64)
    bigger = installed_size(["centos7-base", *extra], Architecture.X86_64)
    assert bigger >= base


# ------------------------------ speedup metric -----------------------------------


@given(
    times=st.lists(
        st.floats(min_value=0.1, max_value=1e4), min_size=2, max_size=6,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_speedup_base_is_one(times):
    from repro.core.metrics import ExperimentResult, speedup_series

    results = [
        ExperimentResult(
            spec_name="p", runtime_name="x", cluster_name="c",
            n_nodes=2**i, total_ranks=2**i, threads_per_rank=1,
            avg_step_seconds=t, elapsed_seconds=t,
        )
        for i, t in enumerate(times)
    ]
    s = speedup_series(results)
    assert s[1] == pytest.approx(1.0)
    # Speedups are positive and finite.
    assert all(math.isfinite(v) and v > 0 for v in s.values())
