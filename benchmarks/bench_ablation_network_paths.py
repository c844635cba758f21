"""Ablation — the network path is the whole story.

DESIGN.md decision #1/#3: runtime differences come from *which path* MPI
traffic takes, not from per-runtime fudge factors.  This ablation runs
the identical job over the three modelled paths on the same hardware and
shows the induced ordering: host-native < TCP fallback < bridge+NAT.
"""

from repro.alya.app import ComputeContext
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.core.figures import ascii_table
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.mpi.comm import SimComm
from repro.mpi.launcher import MpiJob
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.workloads import AlyaWorkload, PhasedApp


def run_path(path: NetworkPath) -> float:
    spec = catalog.MARENOSTRUM4
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=8)
    cluster.wire_network(path)
    perf = MpiPerf.for_fabric(spec.fabric, path)
    comm = SimComm(env, cluster, RankMap(n_ranks=64, n_nodes=8), perf)
    work = AlyaWorkModel(
        case=CaseKind.CFD, n_cells=4_000_000, cg_iters_per_step=25
    )
    ctx = ComputeContext(
        core_peak_flops=spec.node.core_flops(), sustained_fraction=0.045
    )
    app = PhasedApp(AlyaWorkload(), work, ctx, sim_steps=2)
    job = MpiJob(comm, app.rank_body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    return holder["res"].elapsed_seconds / 2  # per step


def test_ablation_network_paths(once):
    def sweep():
        return {path: run_path(path) for path in NetworkPath}

    times = once(sweep)
    rows = [[p.value, t * 1e3] for p, t in times.items()]
    print("\n" + ascii_table(["network path", "step time [ms]"], rows))

    native = times[NetworkPath.HOST_NATIVE]
    fallback = times[NetworkPath.TCP_FALLBACK]
    bridge = times[NetworkPath.BRIDGE_NAT]
    assert native < fallback < bridge
    # On Omni-Path the fallback penalty alone is large (Fig. 2's gap).
    assert fallback > 1.3 * native
