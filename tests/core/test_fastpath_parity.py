"""End-to-end parity of the collective fast path: on by default, exact.

Every :class:`ExperimentRunner` run may short-circuit its lockstep
collectives and halos (:mod:`repro.mpi.fastpath`).  Hypothesis draws
geometries — node counts 1–64 with the awkward ones (``3·2^k``, primes)
forced in — across the Alya CFD/FSI (synchronous and overlapped
predictor halo), stencil and graph workloads, all four runtimes and 1–3
simulated steps, and asserts that the default run's serialised result
equals, bit for bit, the run with the fast path switched off.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core import calibration
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.hardware import catalog
from repro.mpi import fastpath
from repro.workloads import StencilWorkModel
from repro.workloads.alya import AlyaWorkload
from repro.workloads.graph import GraphWorkModel
from repro.workloads.registry import _REGISTRY


class OverlapAlya(AlyaWorkload):
    """Alya with its predictor halo hidden behind the step's compute."""

    name = "alya-overlap"


@pytest.fixture(scope="module", autouse=True)
def overlap_alya_registered():
    """Register :class:`OverlapAlya` for this module's specs only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(_REGISTRY, OverlapAlya.name, OverlapAlya(overlap_halo=True))
        yield

#: Lenox's node and fabric (the one machine with Docker and Shifter),
#: stretched to 64 nodes so every runtime can reach every node count.
LENOX64 = dataclasses.replace(catalog.LENOX, num_nodes=64)

WORKLOADS = {
    "alya-cfd": (
        "alya",
        AlyaWorkModel(case=CaseKind.CFD, n_cells=2_000_000,
                      cg_iters_per_step=4, nominal_timesteps=50),
    ),
    "alya-fsi": (
        "alya",
        AlyaWorkModel(case=CaseKind.FSI, n_cells=2_000_000,
                      cg_iters_per_step=4, nominal_timesteps=50,
                      solid_flops_per_step=2.0e7, interface_cells=6_000),
    ),
    "stencil": (
        "stencil",
        StencilWorkModel(n_cells=2_000_000, checkpoint_every=2),
    ),
    "graph": ("graph", GraphWorkModel(n_cells=2_000_000, rounds=3)),
    "alya-overlap": (
        "alya-overlap",
        AlyaWorkModel(case=CaseKind.CFD, n_cells=2_000_000,
                      cg_iters_per_step=4, nominal_timesteps=50),
    ),
}

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
AWKWARD = [3, 6, 12, 24, 48] + PRIMES

node_counts = st.one_of(st.integers(1, 64), st.sampled_from(AWKWARD))


@st.composite
def specs(draw):
    runtime = draw(
        st.sampled_from(["bare-metal", "docker", "singularity", "shifter"])
    )
    cluster = LENOX64
    if runtime in ("bare-metal", "singularity"):
        cluster = draw(st.sampled_from([LENOX64, catalog.MARENOSTRUM4]))
    technique = None
    if runtime != "bare-metal":
        technique = draw(st.sampled_from(list(BuildTechnique)))
    workload, workmodel = WORKLOADS[draw(st.sampled_from(sorted(WORKLOADS)))]
    return ExperimentSpec(
        name="parity",
        cluster=cluster,
        runtime_name=runtime,
        technique=technique,
        workmodel=workmodel,
        n_nodes=draw(node_counts),
        ranks_per_node=draw(st.sampled_from([1, 2])),
        sim_steps=draw(st.integers(1, 3)),
        granularity=draw(
            st.sampled_from([EndpointGranularity.RANK,
                             EndpointGranularity.NODE])
        ),
        docker_host_network=draw(st.booleans()),
        workload=workload,
    )


def _run_without_fastpath(spec):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastpath.CollectiveFastPath, "eligible",
                   staticmethod(lambda comm: False))
        return ExperimentRunner().run(spec).to_json_dict()


@settings(max_examples=30, deadline=None)
@given(spec=specs())
def test_default_run_equals_message_schedule(spec):
    assert ExperimentRunner().run(spec).to_json_dict() == (
        _run_without_fastpath(spec)
    )


@pytest.mark.parametrize("n_nodes", [6, 12, 24, 48])
def test_fsi_fold_sizes_match(n_nodes):
    """Regression: Fig. 3's FSI case at 3·2^k nodes.  The fold allreduce
    finishes paired ranks one hop late, which staggers the next CG
    iteration; turning the old fast path on raised mid-run here."""
    spec = ExperimentSpec(
        name=f"fig3-{n_nodes}n",
        cluster=catalog.MARENOSTRUM4,
        runtime_name="bare-metal",
        technique=None,
        workmodel=calibration.mn4_fsi_workmodel(),
        n_nodes=n_nodes,
        ranks_per_node=catalog.MARENOSTRUM4.node.cores,
        sim_steps=1,
        granularity=EndpointGranularity.NODE,
    )
    assert ExperimentRunner().run(spec).to_json_dict() == (
        _run_without_fastpath(spec)
    )


@pytest.mark.parametrize("armed", [False, True])
def test_fault_plan_turns_the_fast_path_off(armed):
    """A fault can change a link or a rank mid-collective, so the runner
    builds a communicator without a fast path whenever a plan is armed."""
    from repro.core import runner as runner_mod
    from repro.faults import FaultPlan

    comms = []

    class Spy(runner_mod.SimComm):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            comms.append(self)

    spec = ExperimentSpec(
        name="faults",
        cluster=catalog.MARENOSTRUM4,
        runtime_name="bare-metal",
        technique=None,
        workmodel=WORKLOADS["alya-cfd"][1],
        n_nodes=4,
        ranks_per_node=1,
        sim_steps=1,
        fault_plan=(
            FaultPlan(seed=3, straggler_rate=20.0) if armed else None
        ),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner_mod, "SimComm", Spy)
        ExperimentRunner().run(spec)
    assert comms
    assert all((c.fastpath is None) == armed for c in comms)


def test_fig3_power_of_two_short_circuits():
    """The fast path does engage where it should: a power-of-two Fig. 3
    point resolves every CG allreduce analytically."""
    seen = []
    init = fastpath.CollectiveFastPath.__init__

    def spy(self, comm):
        init(self, comm)
        seen.append(self)

    spec = ExperimentSpec(
        name="fig3-16n",
        cluster=catalog.MARENOSTRUM4,
        runtime_name="singularity",
        technique=BuildTechnique.SYSTEM_SPECIFIC,
        workmodel=calibration.mn4_fsi_workmodel(),
        n_nodes=16,
        ranks_per_node=catalog.MARENOSTRUM4.node.cores,
        sim_steps=1,
        granularity=EndpointGranularity.NODE,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastpath.CollectiveFastPath, "__init__", spy)
        fast = ExperimentRunner().run(spec).to_json_dict()
    (fp,) = seen
    cg_iters = spec.workmodel.cg_iters_per_step
    assert fp.collectives_short_circuited == cg_iters
    assert fp.collectives_declined == 0
    assert fast == _run_without_fastpath(spec)


def _spied_run(spec):
    """(serialised result, the run's fast paths) of the default run."""
    seen = []
    init = fastpath.CollectiveFastPath.__init__

    def spy(self, comm):
        init(self, comm)
        seen.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastpath.CollectiveFastPath, "__init__", spy)
        result = ExperimentRunner().run(spec).to_json_dict()
    return result, seen


@pytest.mark.parametrize("n_nodes", [2, 64])
def test_fig3_node_spec_closes_every_halo(n_nodes):
    """Every halo of a power-of-two Fig. 3 point (the predictor and one
    per CG iteration) takes the closed form, and the result equals the
    message schedule's."""
    spec = ExperimentSpec(
        name=f"fig3-{n_nodes}n",
        cluster=catalog.MARENOSTRUM4,
        runtime_name="bare-metal",
        technique=None,
        workmodel=calibration.mn4_fsi_workmodel(),
        n_nodes=n_nodes,
        ranks_per_node=catalog.MARENOSTRUM4.node.cores,
        sim_steps=1,
        granularity=EndpointGranularity.NODE,
    )
    fast, (fp,) = _spied_run(spec)
    assert fp.halos_short_circuited == 1 + spec.workmodel.cg_iters_per_step
    assert fp.halos_declined == 0
    assert fp.collectives_declined == 0
    # Only the FSI coupling's gather and bcast trees send messages.
    assert fast["messages"] - fp.messages_modelled == 2 * (n_nodes - 1)
    assert fast == _run_without_fastpath(spec)


def test_overlapped_halo_stays_on_messages():
    """An :class:`OverlapPhase` halo is posted before the compute and
    waited on after it, so it never joins the fast path: only the CG
    halos are offered, and the result equals the message schedule's."""
    workload, work = WORKLOADS["alya-overlap"]
    spec = ExperimentSpec(
        name="overlap-halo",
        cluster=catalog.MARENOSTRUM4,
        runtime_name="bare-metal",
        technique=None,
        workmodel=work,
        n_nodes=8,
        ranks_per_node=1,
        sim_steps=2,
        granularity=EndpointGranularity.NODE,
        workload=workload,
    )
    fast, (fp,) = _spied_run(spec)
    offered = fp.halos_short_circuited + fp.halos_declined
    assert offered == spec.sim_steps * work.cg_iters_per_step
    assert fp.halos_short_circuited > 0
    assert fp.messages_modelled < fast["messages"]
    assert fast == _run_without_fastpath(spec)
