"""Alya-through-the-registry parity.

Alya runs as a phase program lowered by the shared
:class:`~repro.workloads.base.PhasedApp`.  That must be invisible to
everything recorded against the hand-written rank body it replaced:
the spec keys, the serve spec names, the four-bucket phase breakdown,
and — pinned below as literal digests recorded from the hand-written
body — every result, span and event of the CFD grid and chain runs, the
overlapped halo, node mode with its intra-node collective stage, FSI,
and FSI under stragglers.  (The golden trace digests themselves are
pinned by ``tests/obs/test_golden_traces.py``.)
"""

import dataclasses
import hashlib
import json

import pytest

from repro.alya.app import ComputeContext
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core import calibration
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.des import Environment
from repro.exec.speckey import spec_key
from repro.faults.plan import FaultPlan
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.mpi.comm import SimComm
from repro.mpi.launcher import MpiJob
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.obs import Observability, trace_digest
from repro.workloads import AlyaWorkload, PhasedApp, get_workload
from repro.workloads.alya import MAX_CG_ITERS


def alya_spec(**overrides):
    base = dict(
        name="parity-test",
        cluster=catalog.LENOX,
        runtime_name="bare-metal",
        technique=None,
        workmodel=calibration.lenox_cfd_workmodel(),
        n_nodes=2,
        ranks_per_node=7,
        threads_per_rank=4,
        sim_steps=1,
        granularity=EndpointGranularity.RANK,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_default_workload_is_alya():
    spec = alya_spec()
    assert spec.workload == "alya"
    assert spec_key(spec) == spec_key(alya_spec(workload="alya"))


def test_registry_hands_back_the_untouched_alya_app():
    """The registry's Alya app is the shared phase lowering over the
    spec's own work model: no Alya-specific rank body, no wrapper."""
    spec = alya_spec()
    ctx = ComputeContext(
        core_peak_flops=2e10,
        threads_per_rank=spec.threads_per_rank,
        ranks_per_node=spec.ranks_per_node,
    )
    app = get_workload("alya").build_app(spec, ctx)
    assert type(app) is PhasedApp
    assert app.workload is get_workload("alya")
    assert app.work is spec.workmodel
    assert app.sim_steps == spec.sim_steps
    assert app.topology == "grid"


def test_alya_phase_breakdown_keeps_the_four_buckets():
    result = ExperimentRunner().run(alya_spec())
    assert list(result.phase_fractions) == [
        "compute", "halo", "collective", "coupling",
    ]
    assert sum(result.phase_fractions.values()) == pytest.approx(1.0)


def test_alya_default_workmodels_match_calibration():
    wl = get_workload("alya")
    assert wl.default_workmodel("fig1") == calibration.lenox_cfd_workmodel()
    assert wl.default_workmodel("fig3") == calibration.mn4_fsi_workmodel()


def test_serve_spec_names_are_unchanged_for_alya():
    from repro.serve.requests import build_spec

    fig1 = build_spec("fig1", runtime="docker", nodes=2)
    assert fig1.name == "serve-fig1-docker-n2"  # no workload tag
    fig3 = build_spec("fig3", nodes=4)
    assert fig3.name == "serve-fig3-singularity-n4"
    # Non-Alya specs tag the name so scoreboards can tell them apart.
    sten = build_spec("fig1", runtime="docker", nodes=2, workload="stencil")
    assert sten.name == "serve-fig1-stencil-docker-n2"


def test_workload_field_rides_replace_and_revalidates():
    spec = alya_spec()
    with pytest.raises(TypeError):
        dataclasses.replace(spec, workload="stencil")


# ----------------------------- the CG op window ------------------------------


def test_cg_window_is_derived_from_the_op_layout():
    # CG halos sit at 10 + 2*it and allreduces at 700 + it: iteration
    # 345's halo would land on the first allreduce.
    assert MAX_CG_ITERS == 345


def test_spec_accepts_the_largest_cg_count_that_fits():
    work = dataclasses.replace(
        calibration.lenox_cfd_workmodel(), cg_iters_per_step=345
    )
    spec = alya_spec(workmodel=work)
    ctx = ComputeContext(core_peak_flops=2e10)
    app = get_workload("alya").build_app(spec, ctx)
    # The program lowers without an op collision.
    prog = app._phases_for(14, 0)
    assert len(prog[2].phases) == 2 * 345


def test_spec_rejects_a_cg_count_past_the_op_window():
    work = dataclasses.replace(
        calibration.lenox_cfd_workmodel(), cg_iters_per_step=346
    )
    with pytest.raises(ValueError, match="cg_iters_per_step=346"):
        alya_spec(workmodel=work)


# ---------------------- parity with the hand-written body --------------------
#
# Each digest was recorded from the hand-written Alya rank body the
# phase program replaced.  A result digest covers the ExperimentResult
# JSON (phase_fractions in order) plus the trace digest (every span,
# record and engine metric); a job digest covers the job's elapsed
# time, message counts and each rank's breakdown plus the trace digest.


def _sha(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()


def _result_digest(spec: ExperimentSpec) -> str:
    obs = Observability()
    result = ExperimentRunner().run(spec, obs=obs)
    return _sha(json.dumps(result.to_json_dict()) + trace_digest(obs))


def _job_digest(topology="grid", overlap=False) -> str:
    """Two steps of a 14-rank Lenox CFD job, app built by hand."""
    env = Environment()
    obs = Observability()
    obs.bind(env)
    cluster = Cluster(env, catalog.LENOX, num_nodes=2)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(catalog.LENOX.fabric, NetworkPath.HOST_NATIVE)
    comm = SimComm(env, cluster, RankMap(14, 2), perf, tracer=obs.records)
    work = AlyaWorkModel(
        case=CaseKind.CFD, n_cells=3_000_000, cg_iters_per_step=4
    )
    ctx = ComputeContext(
        core_peak_flops=catalog.LENOX.node.core_flops(),
        sustained_fraction=0.06,
    )
    app = PhasedApp(
        AlyaWorkload(overlap_halo=overlap), work, ctx, sim_steps=2,
        topology=topology, obs=obs,
    )
    job = MpiJob(comm, app.rank_body, obs=obs)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    res = holder["res"]
    payload = {
        "elapsed": res.elapsed_seconds,
        "messages": res.messages_sent,
        "bytes": res.bytes_sent,
        "internode": res.internode_messages,
        "ranks": [[r.total, r.fractions()] for r in res.rank_results],
    }
    return _sha(json.dumps(payload) + trace_digest(obs))


def _fsi_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="parity-fsi", cluster=catalog.MARENOSTRUM4,
        runtime_name="singularity", technique=BuildTechnique.SELF_CONTAINED,
        workmodel=calibration.mn4_fsi_workmodel(),
        n_nodes=4, ranks_per_node=48, threads_per_rank=1, sim_steps=2,
        granularity=EndpointGranularity.NODE,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


PARITY_CASES = {
    # Docker's bridge, RANK granularity, 2x7 ranks x 4 threads.
    # Re-recorded when the bridge delivery chain dropped its init and
    # join relays: the engine's event count fell from 39,256 to 32,286,
    # while the result and every span and record stayed the same.
    "cfd-grid-rank": (
        lambda: _result_digest(alya_spec(
            name="parity-cfd-rank", runtime_name="docker",
            technique=BuildTechnique.SELF_CONTAINED, sim_steps=2,
        )),
        "9c10353378559654156fce978fa01c3d593f333a382a1c504c960558ca640eaa",
    ),
    "cfd-chain": (
        lambda: _job_digest(topology="chain"),
        "ec7a27d06e608e02a1799fb826f7a9698adfed5ebd3dfaa3cf2dd9d035f62f59",
    ),
    "cfd-overlap": (
        lambda: _job_digest(overlap=True),
        "5c833afe9af1d25b850bc38558e18ea326a2aade425f00734927334c653bf11b",
    ),
    # NODE granularity with 48 ranks per node: every allreduce carries
    # the analytic intra-node stage as its pre-delay.
    "node-intra-penalty": (
        lambda: _result_digest(ExperimentSpec(
            name="parity-node", cluster=catalog.MARENOSTRUM4,
            runtime_name="singularity",
            technique=BuildTechnique.SYSTEM_SPECIFIC,
            workmodel=AlyaWorkModel(
                case=CaseKind.CFD, n_cells=20_000_000, cg_iters_per_step=8
            ),
            n_nodes=4, ranks_per_node=48, threads_per_rank=1, sim_steps=2,
            granularity=EndpointGranularity.NODE,
        )),
        "a64577fd91b6d2f8059701af7e45af0cfe03b376ed9f698a5aa2064f87411962",
    ),
    "fsi": (
        lambda: _result_digest(_fsi_spec()),
        "11f8541bcfad0d45f71128b42057714575c1e2784d1d5110af988f6a9891a8bb",
    ),
    # Every node straggles through the run: the fluid compute is
    # scaled, the solid step at the root is not.
    "fsi-straggler": (
        lambda: _result_digest(_fsi_spec(
            name="parity-fsi-straggler",
            fault_plan=FaultPlan(
                seed=3, straggler_rate=4.0, horizon=5.0, fault_duration=5.0
            ),
        )),
        "c8eda17198613cd2b020069f55869dacdb03e9b9a8b9895f7b1109b44227e1ab",
    ),
}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_alya_phase_program_matches_the_hand_written_body(case):
    run, expected = PARITY_CASES[case]
    assert run() == expected
