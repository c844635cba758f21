"""Tests for collective algorithms: completion, message counts, scaling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import collectives
from repro.mpi.launcher import run_spmd


def run_collective(make_comm, n_ranks, n_nodes, fn, **kwargs):
    """Run one collective on all ranks; returns (elapsed, comm)."""
    env, comm = make_comm(n_ranks, n_nodes)

    def body(c, rank):
        yield from fn(c, rank, op=1, **kwargs)

    procs = run_spmd(comm, body)
    env.run(until=env.all_of(procs))
    return env.now, comm


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 13, 16])
def test_bcast_completes_any_size(make_comm, p):
    elapsed, _ = run_collective(
        make_comm, p, min(p, 4), collectives.bcast, nbytes=1000
    )
    assert elapsed >= 0


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 12, 16])
def test_allreduce_completes_any_size(make_comm, p):
    elapsed, _ = run_collective(
        make_comm, p, min(p, 4), collectives.allreduce, nbytes=800
    )
    assert elapsed >= 0


@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (collectives.allgather, {"nbytes_per_rank": 100}),
        (collectives.gather, {"nbytes_per_rank": 100}),
        (collectives.alltoall, {"nbytes_per_pair": 100}),
        (collectives.allreduce_ring, {"nbytes": 1000}),
    ],
    # Explicit ids, as first generated from a longer list, so that each
    # case keeps its name when entries are added or removed.
    ids=[
        "allgather-kwargs1",
        "gather-kwargs2",
        "alltoall-kwargs4",
        "allreduce_ring-kwargs6",
    ],
)
@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_all_collectives_terminate(make_comm, fn, kwargs, p):
    elapsed, _ = run_collective(make_comm, p, min(p, 4), fn, **kwargs)
    assert elapsed >= 0


def test_bcast_message_count_binomial(make_comm):
    """A binomial broadcast sends exactly p-1 messages."""
    for p in (2, 3, 4, 7, 8, 16):
        _, comm = run_collective(
            make_comm, p, min(p, 4), collectives.bcast, nbytes=100
        )
        assert comm.messages_sent == p - 1


def test_allreduce_message_count_power_of_two(make_comm):
    """Recursive doubling: p * log2(p) messages for power-of-two p."""
    for p in (2, 4, 8, 16):
        _, comm = run_collective(
            make_comm, p, min(p, 4), collectives.allreduce, nbytes=100
        )
        assert comm.messages_sent == p * p.bit_length() - p  # p*log2(p)


def test_allgather_ring_message_count(make_comm):
    for p in (2, 3, 5, 8):
        _, comm = run_collective(
            make_comm, p, min(p, 4), collectives.allgather, nbytes_per_rank=50
        )
        assert comm.messages_sent == p * (p - 1)


def test_alltoall_message_count(make_comm):
    for p in (2, 3, 4, 6):
        _, comm = run_collective(
            make_comm, p, min(p, 4), collectives.alltoall, nbytes_per_pair=10
        )
        assert comm.messages_sent == p * (p - 1)


def test_allreduce_latency_grows_logarithmically(make_comm):
    """Doubling p adds ~one round, so t(16)/t(2) ~ 4 (not 8) for
    latency-dominated payloads."""
    times = {}
    for p in (2, 4, 16):
        times[p], _ = run_collective(
            make_comm, p, min(p, 4), collectives.allreduce, nbytes=8
        )
    assert times[4] > times[2]
    assert times[16] > times[4]
    # log2(16)=4 rounds vs log2(2)=1: ratio well below linear (8x).
    assert times[16] / times[2] < 6.0


def test_ring_allreduce_better_for_large_payloads(make_comm):
    """The ring variant moves 2(p-1)/p * nbytes per rank vs. log2(p) *
    nbytes for recursive doubling: cheaper for big payloads."""
    p, nbytes = 8, 50e6
    t_rd, _ = run_collective(
        make_comm, p, 4, collectives.allreduce, nbytes=nbytes
    )
    t_ring, _ = run_collective(
        make_comm, p, 4, collectives.allreduce_ring, nbytes=nbytes
    )
    assert t_ring < t_rd


@given(p=st.integers(min_value=1, max_value=24))
@settings(max_examples=24, deadline=None)
def test_property_collectives_complete_for_every_size(p):
    from repro.des import Environment
    from repro.hardware import catalog
    from repro.hardware.cluster import Cluster
    from repro.hardware.network import NetworkPath
    from repro.mpi.comm import SimComm
    from repro.mpi.perf import MpiPerf
    from repro.mpi.topology import RankMap

    env = Environment()
    n_nodes = min(p, 4)
    cluster = Cluster(env, catalog.MARENOSTRUM4, num_nodes=n_nodes)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(catalog.MARENOSTRUM4.fabric, NetworkPath.HOST_NATIVE)
    comm = SimComm(env, cluster, RankMap(n_ranks=p, n_nodes=n_nodes), perf)

    def body(c, rank):
        yield from collectives.allreduce(c, rank, op=1, nbytes=64)

    procs = run_spmd(comm, body)
    env.run(until=env.all_of(procs))
    assert env.now >= 0.0
