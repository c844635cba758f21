"""Tests for the two-code FSI application (fluid + solid instances)."""

import pytest

from repro.alya.app import ComputeContext, TwoCodeFsiAlya
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.mpi.comm import SimComm
from repro.mpi.launcher import MpiJob
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.workloads import AlyaWorkload, PhasedApp


def fsi_model(**overrides):
    kwargs = dict(
        case=CaseKind.FSI,
        n_cells=2_000_000,
        cg_iters_per_step=6,
        solid_flops_per_step=5e7,
        interface_cells=20_000,
        nominal_timesteps=100,
    )
    kwargs.update(overrides)
    return AlyaWorkModel(**kwargs)


def run_app(app, n_ranks=12, n_nodes=3):
    env = Environment()
    cluster = Cluster(env, catalog.MARENOSTRUM4, num_nodes=n_nodes)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(catalog.MARENOSTRUM4.fabric,
                              NetworkPath.HOST_NATIVE)
    comm = SimComm(env, cluster, RankMap(n_ranks, n_nodes), perf)
    job = MpiJob(comm, app.rank_body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    return holder["res"]


def ctx():
    return ComputeContext(core_peak_flops=50e9, sustained_fraction=0.05)


def test_split_respects_fraction():
    app = TwoCodeFsiAlya(fsi_model(), ctx(), solid_fraction=0.25)
    fluid, solid = app.split(12)
    assert len(solid) == 3
    assert len(fluid) == 9
    assert fluid + solid == list(range(12))
    # At least one solid endpoint even for tiny fractions.
    app_small = TwoCodeFsiAlya(fsi_model(), ctx(), solid_fraction=0.01)
    fluid, solid = app_small.split(4)
    assert len(solid) == 1


def test_two_code_job_completes():
    app = TwoCodeFsiAlya(fsi_model(), ctx(), sim_steps=2)
    res = run_app(app)
    assert res.elapsed_seconds > 0
    assert res.messages_sent > 0


def test_coupling_synchronizes_the_codes():
    """A slow solid stalls the whole coupled job — the rendezvous works."""
    fast_solid = TwoCodeFsiAlya(
        fsi_model(solid_flops_per_step=1e6), ctx(), sim_steps=2
    )
    slow_solid = TwoCodeFsiAlya(
        fsi_model(solid_flops_per_step=5e10), ctx(), sim_steps=2
    )
    t_fast = run_app(fast_solid).elapsed_seconds
    t_slow = run_app(slow_solid).elapsed_seconds
    assert t_slow > 2 * t_fast


def test_two_code_comparable_to_folded_model():
    """The two-code and folded FSI models land in the same regime on the
    same job.  The two-code run is somewhat slower by construction: the
    solid's flops concentrate on its small group instead of amortising
    over the whole allocation, and the coupling is a true rendezvous."""
    work = fsi_model()
    folded = PhasedApp(AlyaWorkload(), work, ctx(), sim_steps=2)
    two_code = TwoCodeFsiAlya(work, ctx(), sim_steps=2)
    t_folded = run_app(folded).elapsed_seconds
    t_two = run_app(two_code).elapsed_seconds
    assert t_folded < t_two < 5 * t_folded


def test_validation():
    cfd = AlyaWorkModel(case=CaseKind.CFD, n_cells=1000)
    with pytest.raises(ValueError, match="FSI"):
        TwoCodeFsiAlya(cfd, ctx())
    with pytest.raises(ValueError):
        TwoCodeFsiAlya(fsi_model(), ctx(), sim_steps=0)
    with pytest.raises(ValueError):
        TwoCodeFsiAlya(fsi_model(), ctx(), solid_fraction=0.6)
    app = TwoCodeFsiAlya(fsi_model(), ctx())
    with pytest.raises(ValueError):
        app.split(1)
