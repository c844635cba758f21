"""Shared fixtures: a small wired cluster and communicator factory."""

import pytest

from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.mpi.comm import SimComm
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap


@pytest.fixture
def make_comm():
    """Factory: (n_ranks, n_nodes, path, cluster_spec, tracer) -> (env, comm)."""

    def factory(
        n_ranks,
        n_nodes,
        path=NetworkPath.HOST_NATIVE,
        spec=catalog.MARENOSTRUM4,
        tracer=None,
    ):
        env = Environment()
        cluster = Cluster(env, spec, num_nodes=n_nodes)
        cluster.wire_network(path)
        rankmap = RankMap(n_ranks=n_ranks, n_nodes=n_nodes)
        perf = MpiPerf.for_fabric(spec.fabric, path)
        comm = SimComm(env, cluster, rankmap, perf, tracer=tracer)
        return env, comm

    return factory
