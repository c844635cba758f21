"""Registry semantics: lookup, registration, spec policing."""

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.hardware import catalog
from repro.workloads import (
    AlyaWorkload,
    ComputePhase,
    PhasedWorkload,
    StencilWorkModel,
    get_workload,
    list_workloads,
    register,
)
from repro.workloads.registry import _REGISTRY


def test_builtins_are_registered():
    # Registration order: the built-ins come first, Alya first of all.
    assert list_workloads()[:3] == ["alya", "stencil", "graph"]
    for name in ("alya", "stencil", "graph"):
        wl = get_workload(name)
        assert wl.name == name
        assert wl.description
        # Documented scaling envelope: sane, honest bounds.
        assert 0.0 < wl.strong_efficiency_floor <= 1.0
        assert wl.weak_growth_ceiling >= 1.0


def test_get_workload_is_stable_and_loud_on_unknown():
    assert get_workload("alya") is get_workload("alya")
    with pytest.raises(KeyError, match="alya"):
        get_workload("no-such-workload")


def test_duplicate_registration_is_rejected_unless_replaced():
    original = get_workload("alya")
    with pytest.raises(ValueError, match="already registered"):
        register(AlyaWorkload())
    try:
        replacement = AlyaWorkload()
        register(replacement, replace=True)
        assert get_workload("alya") is replacement
    finally:
        register(original, replace=True)


def test_nameless_workload_is_rejected():
    class Nameless(AlyaWorkload):
        name = ""

    with pytest.raises(ValueError, match="name"):
        register(Nameless())


def make_spec(**overrides):
    base = dict(
        name="registry-test",
        cluster=catalog.LENOX,
        runtime_name="bare-metal",
        technique=None,
        workmodel=AlyaWorkModel(
            case=CaseKind.CFD, n_cells=400_000, cg_iters_per_step=4,
            nominal_timesteps=20,
        ),
        n_nodes=2,
        ranks_per_node=4,
        sim_steps=1,
        granularity=EndpointGranularity.RANK,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_construction_polices_workmodel_type():
    with pytest.raises(TypeError, match="StencilWorkModel"):
        make_spec(workload="stencil")  # carries an AlyaWorkModel
    with pytest.raises(TypeError, match="AlyaWorkModel"):
        make_spec(workmodel=StencilWorkModel(n_cells=400_000))


def test_spec_construction_rejects_unknown_workload():
    with pytest.raises(KeyError, match="never-registered"):
        make_spec(workload="never-registered")


class _TinyWorkload(PhasedWorkload):
    """A third-party workload: one compute phase per step."""

    name = "tiny-test-workload"
    workmodel_type = StencilWorkModel
    description = "single compute phase (registration round-trip test)"
    topology = "chain"

    def default_workmodel(self, fig="fig1"):
        return StencilWorkModel(n_cells=100_000)

    def phases(self, work, ctx, n_endpoints, step):
        return (ComputePhase("only", 1e-4),)


def test_third_party_workload_runs_end_to_end():
    register(_TinyWorkload())
    try:
        spec = make_spec(
            workload="tiny-test-workload",
            workmodel=StencilWorkModel(n_cells=100_000),
        )
        result = ExperimentRunner().run(spec)
        assert result.avg_step_seconds > 0
        assert set(result.phase_fractions) == {"compute"}
    finally:
        del _REGISTRY["tiny-test-workload"]


def test_nudge_mints_distinct_equal_cost_variants():
    wl = get_workload("stencil")
    base = StencilWorkModel(n_cells=100_000)
    v3 = wl.nudge(base, 3)
    assert v3.n_cells == 100_003
    assert wl.nudge(base, 0) == base
    with pytest.raises(ValueError):
        wl.nudge(base, -1)
