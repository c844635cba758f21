"""Strong/weak scaling sweeps over the four-runtime Lenox grid."""

import pytest

from repro.core.metrics import ExperimentResult
from repro.core.study import RUNTIMES
from repro.core.study_ext import WorkloadScalingStudy
from repro.faults import FaultPlan
from repro.workloads import get_workload

NODES = (1, 2)
LABELS = tuple(label for label, _, _ in RUNTIMES)


def run_study(workload, mode, **kwargs):
    return WorkloadScalingStudy(
        workload=workload, mode=mode, nodes=NODES, sim_steps=1, **kwargs
    ).run()


@pytest.mark.parametrize("workload", ["alya", "stencil", "graph"])
def test_strong_scaling_covers_all_four_runtimes(workload):
    outcome = run_study(workload, "strong")
    assert set(outcome.results) == set(LABELS)
    floor = get_workload(workload).strong_efficiency_floor
    for label in LABELS:
        series = outcome.series(label)
        assert sorted(series) == list(NODES)
        assert all(
            isinstance(r, ExperimentResult)
            for r in outcome.results[label].values()
        )
        # Efficiency at the base point is 1.0 by construction; every
        # point honours the workload's documented envelope.
        effs = outcome.efficiencies(label)
        assert effs[min(NODES)] == pytest.approx(1.0)
        assert all(floor <= e <= 1.05 for e in effs.values()), (
            workload, label, effs,
        )


@pytest.mark.parametrize("workload", ["stencil", "graph"])
def test_weak_scaling_ideal_is_flat_and_growth_bounded(workload):
    outcome = run_study(workload, "weak")
    ceiling = get_workload(workload).weak_growth_ceiling
    for label in LABELS:
        series = outcome.series(label)
        ideal = outcome.ideal_series(label)
        assert len(set(ideal.values())) == 1  # flat reference curve
        growth = max(series.values()) / series[min(series)]
        assert growth <= ceiling, (workload, label, growth)
        # Per-node work is constant: the model really was rebuilt.
        spec_results = outcome.results[label]
        assert set(spec_results) == set(NODES)


def test_strong_ideal_curve_is_linear_speedup():
    outcome = run_study("stencil", "strong")
    ideal = outcome.ideal_series("bare-metal")
    assert ideal[2] == pytest.approx(ideal[1] / 2)
    assert outcome.speedup("bare-metal", 1) == pytest.approx(1.0)


def test_fault_plan_is_threaded_through_both_modes():
    plan = FaultPlan.load(
        "seed=11,straggler_rate=2,straggler_factor=1.5,"
        "duration=30,horizon=0.5"
    )
    calm = run_study("stencil", "strong")
    shaken = run_study("stencil", "strong", fault_plan=plan)
    # The plan reaches the simulation: the containerised runs (whose
    # compute windows the straggler episode blankets) measure slower.
    assert shaken.series("docker") != calm.series("docker")
    # And it reaches the spec key: shaken runs never alias calm cache
    # entries even where the episode misses the compute window.
    floor = get_workload("stencil").strong_efficiency_floor
    assert all(
        floor <= e <= 1.05
        for e in shaken.efficiencies("docker").values()
    )


def test_stencil_outs_scales_the_graph_workload():
    """The registry's coverage claim: the p2p stencil strong-scales
    strictly better than the collective-bound graph pipeline."""
    sten = run_study("stencil", "strong").efficiencies("bare-metal")
    graph = run_study("graph", "strong").efficiencies("bare-metal")
    top = max(NODES)
    assert sten[top] > graph[top]


def test_study_validation():
    with pytest.raises(ValueError, match="mode"):
        WorkloadScalingStudy(mode="diagonal")
    with pytest.raises(KeyError, match="registered"):
        WorkloadScalingStudy(workload="no-such")
    with pytest.raises(ValueError, match="node"):
        WorkloadScalingStudy(nodes=())
