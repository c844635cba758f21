"""Ablation — communication/computation overlap.

The studies model Alya's synchronous halo exchange (compute, then wait).
Overlapping the predictor halo with the arithmetic (non-blocking sends
posted first, waited after) is the classic optimisation; this ablation
measures the headroom it would buy on the bandwidth-starved Lenox
cluster, and confirms it cannot change the paper's runtime ordering
(Docker's per-message serialization hurts either way).
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


def run(overlap: bool, path: NetworkPath) -> float:
    spec = catalog.LENOX
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=4)
    cluster.wire_network(path)
    perf = MpiPerf.for_fabric(spec.fabric, path)
    comm = SimComm(env, cluster, RankMap(112, 4), perf)
    # Few solver iterations + large subdomains: the predictor halo is a
    # large share of the step, so overlap has something to hide.
    work = AlyaWorkModel(
        case=CaseKind.CFD, n_cells=30_000_000, cg_iters_per_step=4
    )
    ctx = ComputeContext(
        core_peak_flops=spec.node.core_flops(), sustained_fraction=0.06
    )
    app = PhasedApp(
        AlyaWorkload(overlap_halo=overlap), work, ctx, sim_steps=2
    )
    job = MpiJob(comm, app.rank_body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    return holder["res"].elapsed_seconds / 2


def test_ablation_halo_overlap(once):
    def sweep():
        return {
            ("sync", "host"): run(False, NetworkPath.HOST_NATIVE),
            ("overlap", "host"): run(True, NetworkPath.HOST_NATIVE),
            ("sync", "bridge"): run(False, NetworkPath.BRIDGE_NAT),
            ("overlap", "bridge"): run(True, NetworkPath.BRIDGE_NAT),
        }

    res = once(sweep)
    rows = [
        [f"{mode} / {path}", t] for (mode, path), t in res.items()
    ]
    print("\n" + ascii_table(["variant", "step time [s]"], rows))

    # Overlap helps on the host path (it hides real transfer time)...
    assert res[("overlap", "host")] < res[("sync", "host")] * 0.97
    # ...and never hurts through the bridge...
    assert res[("overlap", "bridge")] <= res[("sync", "bridge")] * 1.001
    # ...but cannot close the bridge-vs-host gap (the serialization is
    # CPU work, not hideable wait time).
    assert res[("overlap", "bridge")] > res[("overlap", "host")] * 1.2
