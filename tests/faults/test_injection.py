"""End-to-end fault injection through the full experiment pipeline."""

import pickle

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.faults import FaultEvent, FaultKind, FaultPlan, PullError, RankFailure
from repro.hardware import catalog
from repro.obs import Observability


def small_wm():
    return AlyaWorkModel(
        case=CaseKind.CFD, n_cells=200_000, cg_iters_per_step=3,
        nominal_timesteps=10,
    )


def make_spec(fault_plan=None, name="faulted", n_nodes=2, sim_steps=2):
    return ExperimentSpec(
        name=name,
        cluster=catalog.LENOX,
        runtime_name="singularity",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=small_wm(),
        n_nodes=n_nodes,
        ranks_per_node=7,
        threads_per_rank=1,
        sim_steps=sim_steps,
        granularity=EndpointGranularity.RANK,
        fault_plan=fault_plan,
    )


def baseline():
    return ExperimentRunner().run(make_spec())


def link_plan(span, factor=0.2):
    """Degrade every node's NIC across the whole measured run window."""
    return FaultPlan(
        schedule=tuple(
            FaultEvent(0.0, FaultKind.LINK_DEGRADE, node=n,
                       duration=span * 2, factor=factor)
            for n in range(2)
        )
    )


def test_no_plan_records_nothing_and_measures_the_span():
    result = baseline()
    assert result.faults_injected == 0
    assert result.requeues == 0
    assert result.fault_timeline_digest == ""
    # The span covers submission through the last step of the *simulated*
    # run — deployment plus launch plus the stepped window — which is a
    # different clock from the extrapolated elapsed_seconds.
    assert result.sim_span_seconds > result.deployment_seconds > 0


def test_link_degradation_slows_the_run():
    base = baseline()
    faulted = ExperimentRunner().run(
        make_spec(link_plan(base.sim_span_seconds))
    )
    assert faulted.faults_injected > 0
    assert faulted.fault_timeline_digest != ""
    assert faulted.elapsed_seconds > base.elapsed_seconds


def test_timeline_digest_is_reproducible():
    base = baseline()
    plan = FaultPlan(seed=11, link_degrade_rate=4.0 / base.sim_span_seconds,
                     horizon=base.sim_span_seconds, degrade_factor=0.25,
                     fault_duration=base.sim_span_seconds / 10)
    a = ExperimentRunner().run(make_spec(plan))
    b = ExperimentRunner().run(make_spec(plan))
    assert a.fault_timeline_digest == b.fault_timeline_digest != ""
    assert a.elapsed_seconds == b.elapsed_seconds
    assert a.faults_injected == b.faults_injected > 0


def test_node_crash_requeues_and_completes():
    base = baseline()
    # Crash node 1 in the middle of the job window with a detection
    # delay short enough to land before the job would have finished;
    # the scheduler requeues once and the relaunch completes.
    mid = (base.deployment_seconds + base.sim_span_seconds) / 2
    plan = FaultPlan(
        schedule=(FaultEvent(mid, FaultKind.NODE_CRASH, node=1),)
    ).with_tolerance(detect_timeout=0.001)
    result = ExperimentRunner().run(make_spec(plan))
    assert result.requeues == 1
    assert result.elapsed_seconds > 0
    # The requeue shows up on the injected timeline.
    assert result.faults_injected >= 2  # crash marker + requeue marker


def test_node_crash_with_no_requeues_raises_rank_failure():
    base = baseline()
    mid = (base.deployment_seconds + base.sim_span_seconds) / 2
    plan = FaultPlan(
        schedule=(FaultEvent(mid, FaultKind.NODE_CRASH, node=0),)
    ).with_tolerance(max_requeues=0, detect_timeout=0.001)
    with pytest.raises(RankFailure):
        ExperimentRunner().run(make_spec(plan))


def test_pull_failures_are_retried_and_recorded():
    # Only the Docker deploy path pulls through the registry egress;
    # Singularity ships its image over the shared filesystem.
    def docker_spec(plan=None):
        spec = make_spec(plan)
        from dataclasses import replace

        return replace(spec, runtime_name="docker")

    base = ExperimentRunner().run(docker_spec())
    result = ExperimentRunner().run(docker_spec(FaultPlan(pull_fail_count=2)))
    assert result.faults_injected >= 2
    assert result.deployment_seconds > base.deployment_seconds
    # Pull retries delay deployment, not the solver.
    assert result.avg_step_seconds == pytest.approx(base.avg_step_seconds)


def test_straggler_slows_only_the_afflicted_window():
    base = baseline()
    plan = FaultPlan(
        schedule=(FaultEvent(0.0, FaultKind.STRAGGLER, node=0,
                             duration=base.sim_span_seconds * 2,
                             factor=3.0),)
    )
    result = ExperimentRunner().run(make_spec(plan))
    assert result.elapsed_seconds > base.elapsed_seconds


def test_obs_counts_injections():
    base = baseline()
    obs = Observability()
    plan = link_plan(base.sim_span_seconds)
    result = ExperimentRunner().run(make_spec(plan), obs=obs)
    assert (
        obs.metrics.counter("faults.injected").value
        == result.faults_injected
        > 0
    )


def test_result_round_trip_carries_fault_fields():
    base = baseline()
    faulted = ExperimentRunner().run(
        make_spec(link_plan(base.sim_span_seconds))
    )
    from repro.core.metrics import ExperimentResult

    clone = ExperimentResult.from_json_dict(faulted.to_json_dict())
    assert clone.faults_injected == faulted.faults_injected
    assert clone.fault_timeline_digest == faulted.fault_timeline_digest
    assert clone.sim_span_seconds == faulted.sim_span_seconds
    assert clone == faulted


@pytest.mark.parametrize(
    "exc",
    [RankFailure(2, 0.0027), PullError("alya:latest", "timeout", 3)],
    ids=["RankFailure", "PullError"],
)
def test_fault_errors_survive_a_pickle_round_trip(exc):
    """Pool workers send a failed point's exception back pickled."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
