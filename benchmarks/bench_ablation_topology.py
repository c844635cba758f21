"""Ablation — flat fabric vs oversubscribed leaf switches.

The headline studies use the flat (NIC-limited) fabric model.  Two probes
justify that choice:

1. the paper's FSI workload (latency-bound halos + tiny allreduces) is
   *insensitive* to MareNostrum4's real 2:1 Omni-Path island
   oversubscription — the flat model loses nothing for Fig. 3;
2. a bandwidth-bound alltoall (transpose-type) workload *is* throttled by
   the same topology, confirming the uplink model works and delimiting
   where the flat assumption would break.
"""

from typing import Optional

from repro.alya.app import ComputeContext
from repro.core.calibration import mn4_fsi_workmodel, sustained_fraction
from repro.core.figures import ascii_table
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.hardware.topology import SwitchTopology
from repro.mpi import collectives
from repro.mpi.comm import SimComm
from repro.mpi.launcher import MpiJob, run_spmd
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.workloads import AlyaWorkload, PhasedApp

#: A small-island variant so the 2-switch effects appear at bench scale.
ISLANDS = SwitchTopology(nodes_per_switch=8, oversubscription=2.0)


def _wire(n_nodes: int, topology: Optional[SwitchTopology]):
    spec = catalog.MARENOSTRUM4
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=n_nodes)
    cluster.wire_network(NetworkPath.HOST_NATIVE, topology=topology)
    perf = MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE)
    comm = SimComm(env, cluster, RankMap(n_nodes, n_nodes), perf)
    return env, cluster, comm


def run_fsi(n_nodes: int, topology: Optional[SwitchTopology]) -> float:
    spec = catalog.MARENOSTRUM4
    env, cluster, comm = _wire(n_nodes, topology)
    ctx = ComputeContext(
        core_peak_flops=spec.node.core_flops(),
        sustained_fraction=sustained_fraction(spec),
        endpoint_is_node=True,
        ranks_per_node=spec.node.cores,
    )
    app = PhasedApp(AlyaWorkload(), mn4_fsi_workmodel(), ctx, sim_steps=2)
    job = MpiJob(comm, app.rank_body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    return holder["res"].elapsed_seconds / 2


def run_alltoall(n_nodes: int, topology: Optional[SwitchTopology]) -> float:
    env, cluster, comm = _wire(n_nodes, topology)

    def body(c, rank):
        yield from collectives.alltoall(c, rank, op=1, nbytes_per_pair=8e6)

    procs = run_spmd(comm, body)
    env.run(until=env.all_of(procs))
    return env.now


def test_ablation_switch_oversubscription(once):
    def sweep():
        return {
            "FSI (latency-bound)": (run_fsi(16, None), run_fsi(16, ISLANDS)),
            "alltoall 8 MB (bandwidth-bound)": (
                run_alltoall(16, None),
                run_alltoall(16, ISLANDS),
            ),
        }

    result = once(sweep)
    rows = [
        [label, flat, island, island / flat]
        for label, (flat, island) in result.items()
    ]
    print(
        "\n"
        + ascii_table(
            ["workload", "flat [s]", "2:1 islands [s]", "ratio"], rows
        )
    )
    fsi_flat, fsi_island = result["FSI (latency-bound)"]
    a2a_flat, a2a_island = result["alltoall 8 MB (bandwidth-bound)"]
    # The paper's workload does not feel the islands...
    assert fsi_island < fsi_flat * 1.05
    # ...but a transpose-type workload is measurably throttled (the
    # uplink becomes the binding constraint for its cross-island half).
    assert a2a_island > a2a_flat * 1.15
