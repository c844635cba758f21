"""Ablation — rank placement (block vs cyclic).

The artery's slab (chain) decomposition gives each rank two neighbours
along the vessel axis.  Block placement keeps almost all of those pairs
on the same node (only the slab cuts at node boundaries cross the 1 GbE
wire); cyclic placement sends *every* halo across the fabric.  The
ablation quantifies the cost of ignoring locality — the reason the
studies model SLURM's default block layout.
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
from repro.mpi.topology import Placement, RankMap
from repro.workloads import AlyaWorkload, PhasedApp


def run_placement(placement: Placement) -> tuple[float, int]:
    spec = catalog.LENOX  # 1 GbE makes locality matter most
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=4)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE)
    comm = SimComm(
        env,
        cluster,
        RankMap(n_ranks=112, n_nodes=4, placement=placement),
        perf,
    )
    work = AlyaWorkModel(
        case=CaseKind.CFD, n_cells=6_500_000, cg_iters_per_step=25
    )
    ctx = ComputeContext(
        core_peak_flops=spec.node.core_flops(), sustained_fraction=0.06
    )
    app = PhasedApp(
        AlyaWorkload(), work, ctx, sim_steps=1, topology="chain"
    )
    job = MpiJob(comm, app.rank_body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    res = holder["res"]
    return res.elapsed_seconds, res.internode_messages


def test_ablation_block_vs_cyclic_placement(once):
    def sweep():
        return {p: run_placement(p) for p in Placement}

    outcome = once(sweep)
    rows = [
        [p.value, t, msgs] for p, (t, msgs) in outcome.items()
    ]
    print(
        "\n"
        + ascii_table(
            ["placement", "step time [s]", "inter-node messages"], rows
        )
    )
    t_block, msgs_block = outcome[Placement.BLOCK]
    t_cyclic, msgs_cyclic = outcome[Placement.CYCLIC]
    assert msgs_cyclic > msgs_block
    assert t_cyclic > t_block
