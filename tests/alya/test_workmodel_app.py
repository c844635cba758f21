"""Tests for the work model and the simulated application."""

import math

import pytest

from repro.alya.app import ComputeContext
from repro.alya.geometry import ArteryGeometry
from repro.alya.mesh import StructuredMesh
from repro.alya.navier_stokes import ChannelFlowSolver
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.mpi.comm import SimComm
from repro.mpi.launcher import MpiJob
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.openmp.model import OpenMPModel
from repro.workloads import (
    AlyaWorkload, CollectivePhase, PhasedApp, grid_neighbors,
)
from repro.workloads.alya import intra_collective_penalty


def cfd_model(n_cells=1_000_000):
    return AlyaWorkModel(case=CaseKind.CFD, n_cells=n_cells)


def alya_app(work, ctx, sim_steps=3):
    return PhasedApp(AlyaWorkload(), work, ctx, sim_steps=sim_steps)


def step_compute(ctx, n_endpoints):
    """Seconds of the CFD step's compute phase on ``n_endpoints``."""
    compute = AlyaWorkload().phases(cfd_model(), ctx, n_endpoints, 0)[0]
    assert compute.name == "compute"
    return compute.seconds


def fsi_model(n_cells=1_000_000):
    return AlyaWorkModel(
        case=CaseKind.FSI,
        n_cells=n_cells,
        solid_flops_per_step=5e6,
        interface_cells=10_000,
    )


# ------------------------------ work model -----------------------------------


def test_cells_per_part_scales_inversely():
    wm = cfd_model()
    assert wm.cells_per_part(10) == pytest.approx(wm.cells_per_part(20) * 2)


def test_halo_surface_scaling():
    """halo ~ cells^(2/3): halving the part size reduces the halo by 2^(2/3)."""
    wm = cfd_model()
    ratio = wm.halo_cells(10) / wm.halo_cells(20)
    assert ratio == pytest.approx(2 ** (2 / 3))


def test_step_flops_include_cg():
    wm = cfd_model()
    flops = wm.step_flops_per_part(1)
    expected = (
        wm.flops_per_cell_step
        + wm.cg_iters_per_step * wm.flops_per_cell_cg_iter
    ) * wm.cells_per_part(1)
    assert flops == pytest.approx(expected)


def test_halo_bytes_fields():
    wm = cfd_model()
    assert wm.halo_bytes_main(8) == pytest.approx(
        wm.halo_cells(8) * 2 * 8.0
    )
    assert wm.halo_bytes_cg(8) == pytest.approx(wm.halo_cells(8) * 8.0)


def test_fsi_model_requires_solid_fields():
    with pytest.raises(ValueError):
        AlyaWorkModel(case=CaseKind.FSI, n_cells=100)


def test_cfd_model_rejects_fsi_fields():
    """The inverse of the FSI check: a CFD model carrying coupling
    parameters used to be accepted silently (and the solid cost
    silently dropped by the CFD lowering) — now it is a loud error."""
    with pytest.raises(ValueError, match="CFD model must not carry"):
        AlyaWorkModel(
            case=CaseKind.CFD, n_cells=100, solid_flops_per_step=5e6,
        )
    with pytest.raises(ValueError, match="CFD model must not carry"):
        AlyaWorkModel(case=CaseKind.CFD, n_cells=100, interface_cells=10)
    # The defaults (both zero) stay valid, as does a proper FSI model.
    cfd_model()
    fsi_model()


def test_measured_from_solver():
    mesh = StructuredMesh(ArteryGeometry(), nx=48, ny=12)
    solver = ChannelFlowSolver(mesh)
    stats = solver.run(10)
    wm = AlyaWorkModel.measured_from(mesh, stats, scale_cells=10_000_000)
    assert wm.n_cells == 10_000_000
    assert wm.cg_iters_per_step == round(stats.mean_cg_iterations)
    assert wm.flops_per_cell_step > 0


def test_measured_from_requires_steps():
    mesh = StructuredMesh(ArteryGeometry(), nx=48, ny=12)
    from repro.alya.navier_stokes import SolverStats

    with pytest.raises(ValueError):
        AlyaWorkModel.measured_from(mesh, SolverStats())


def test_workmodel_validation():
    with pytest.raises(ValueError):
        AlyaWorkModel(case=CaseKind.CFD, n_cells=0)
    with pytest.raises(ValueError):
        AlyaWorkModel(case=CaseKind.CFD, n_cells=10, cg_iters_per_step=0)
    wm = cfd_model()
    with pytest.raises(ValueError):
        wm.cells_per_part(0)
    with pytest.raises(ValueError):
        wm.cells_per_part(2, imbalance=0.5)


# ------------------------------ compute context --------------------------------


def test_compute_context_threading_reduces_time():
    ctx1 = ComputeContext(core_peak_flops=50e9, threads_per_rank=1)
    ctx8 = ComputeContext(core_peak_flops=50e9, threads_per_rank=8)
    assert step_compute(ctx8, 4) < step_compute(ctx1, 4)


def test_cpu_overhead_multiplies():
    base = ComputeContext(core_peak_flops=50e9)
    dock = ComputeContext(core_peak_flops=50e9, cpu_overhead=1.005)
    assert step_compute(dock, 4) == pytest.approx(
        step_compute(base, 4) * 1.005
    )


def test_node_mode_accounts_true_ranks():
    rank_ctx = ComputeContext(core_peak_flops=50e9)
    node_ctx = ComputeContext(
        core_peak_flops=50e9, endpoint_is_node=True, ranks_per_node=8
    )
    # 4 node-endpoints with 8 ranks each == 32 rank-endpoints.
    assert step_compute(node_ctx, 4) == pytest.approx(
        step_compute(rank_ctx, 32)
    )
    assert intra_collective_penalty(node_ctx) > 0
    assert intra_collective_penalty(rank_ctx) == 0
    # The intra-node stage rides on every CG allreduce in node mode.
    cg = AlyaWorkload().phases(cfd_model(), node_ctx, 4, 0)[2]
    allreduces = [p for p in cg.phases if isinstance(p, CollectivePhase)]
    assert len(allreduces) == cfd_model().cg_iters_per_step
    assert {p.pre_delay for p in allreduces} == {
        intra_collective_penalty(node_ctx)
    }


def test_compute_context_validation():
    with pytest.raises(ValueError):
        ComputeContext(core_peak_flops=0)
    with pytest.raises(ValueError):
        ComputeContext(core_peak_flops=1e9, sustained_fraction=0)
    with pytest.raises(ValueError):
        ComputeContext(core_peak_flops=1e9, cpu_overhead=0.9)
    with pytest.raises(ValueError):
        alya_app(cfd_model(), ComputeContext(core_peak_flops=1e9), sim_steps=0)


# ------------------------------ simulated app ----------------------------------


def run_app(app, n_ranks, n_nodes, path=NetworkPath.HOST_NATIVE,
            spec=catalog.MARENOSTRUM4):
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=n_nodes)
    cluster.wire_network(path)
    perf = MpiPerf.for_fabric(spec.fabric, path)
    comm = SimComm(env, cluster, RankMap(n_ranks, n_nodes), perf)
    job = MpiJob(comm, app.rank_body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    return holder["res"]


def test_cfd_app_runs_and_scales():
    ctx = ComputeContext(core_peak_flops=50e9)
    app = alya_app(cfd_model(), ctx, sim_steps=2)
    res8 = run_app(app, 8, 2)
    res16 = run_app(app, 16, 4)
    assert res8.elapsed_seconds > 0
    # Strong scaling: more ranks -> less time (compute dominates here).
    assert res16.elapsed_seconds < res8.elapsed_seconds
    assert res16.messages_sent > res8.messages_sent


def test_fsi_app_has_coupling_traffic():
    ctx = ComputeContext(core_peak_flops=50e9)
    cfd = alya_app(cfd_model(), ctx, sim_steps=1)
    fsi = alya_app(fsi_model(), ctx, sim_steps=1)
    res_cfd = run_app(cfd, 8, 2)
    res_fsi = run_app(fsi, 8, 2)
    # FSI adds gather + bcast messages on top of the CFD pattern.
    assert res_fsi.messages_sent > res_cfd.messages_sent
    assert res_fsi.elapsed_seconds > res_cfd.elapsed_seconds


def test_neighbors_grid_structure():
    rankmap = RankMap(8, 2)
    # Rank 0: node 0 slot 0 -> intra right (1), inter down (4).
    nbrs = dict(grid_neighbors(rankmap, 0, endpoint_is_node=False))
    assert nbrs == {1: 0, 4: 1}
    # Rank 5: node 1 slot 1 -> intra 4 and 6, inter up 1.
    nbrs5 = grid_neighbors(rankmap, 5, endpoint_is_node=False)
    assert (4, 0) in nbrs5 and (6, 0) in nbrs5 and (1, 1) in nbrs5


def test_tcp_fallback_slows_app():
    ctx = ComputeContext(core_peak_flops=50e9)
    app = alya_app(cfd_model(), ctx, sim_steps=1)
    t_native = run_app(app, 16, 4, NetworkPath.HOST_NATIVE).elapsed_seconds
    t_fallback = run_app(app, 16, 4, NetworkPath.TCP_FALLBACK).elapsed_seconds
    assert t_fallback > t_native
