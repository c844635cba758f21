"""Fault-subsystem overhead on the no-fault path.

The tentpole constraint on :mod:`repro.faults` is that it is *free when
off*: a spec without a :class:`~repro.faults.plan.FaultPlan` never
constructs an injector, so the only recurring cost is the ``faults is
None`` check in :meth:`PhasedApp._compute_delay
<repro.workloads.base.PhasedApp._compute_delay>`, the compute lowering
(everything else is a handful of per-run ``is None`` checks).  This
benchmark proves that empirically, mirroring ``bench_obs_overhead.py``:

- ``test_faults_off_overhead_under_2pct`` runs the full experiment
  pipeline with the production Alya lowering against a baseline whose
  compute lowering has the straggler lines deleted, swapped in through
  the workload registry, and asserts the off-path overhead stays under
  2%;
- ``test_no_injector_constructed_off_path`` proves the runner never even
  builds a :class:`FaultInjector` without a plan;
- ``test_baseline_and_production_results_agree`` proves the two
  lowerings are the same physics, so the timing comparison is
  apples-to-apples.

The timed comparison is a guard, not a measurement: the true difference
(one ``is None`` check per compute phase per rank) is far below the
wall-clock noise of a busy host, so each measurement round takes
best-of-``REPEATS`` for both lowerings in alternating order, and the
test passes as soon as one of ``MAX_ROUNDS`` rounds lands under budget.
A genuine hot-path regression shifts *every* round above 2% and still
fails.
"""

import time

import repro.core.runner as runner_mod
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.hardware import catalog
from repro.workloads import AlyaWorkload, PhasedApp, get_workload, register

REPEATS = 8
MAX_ROUNDS = 5
MAX_OFF_OVERHEAD = 0.02


class BaselineApp(PhasedApp):
    """``PhasedApp`` with the pre-fault compute lowering: the nominal
    delay, with the straggler lines deleted."""

    def _compute_delay(self, phase, ep_node, now):
        return phase.seconds


class BaselineAlya(AlyaWorkload):
    """Alya's phase program, lowered by :class:`BaselineApp`."""

    def build_app(self, spec, ctx, obs=None, faults=None):
        return BaselineApp(
            self,
            spec.workmodel,
            ctx,
            sim_steps=spec.sim_steps,
            topology=self.topology,
            io_bandwidth=spec.cluster.shared_fs_bandwidth,
            obs=obs,
            faults=faults,
        )


PRODUCTION = get_workload("alya")
BASELINE = BaselineAlya()


def make_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="bench-faults-off",
        cluster=catalog.LENOX,
        runtime_name="singularity",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=AlyaWorkModel(
            case=CaseKind.CFD, n_cells=2_000_000, cg_iters_per_step=10,
            nominal_timesteps=10,
        ),
        n_nodes=4,
        ranks_per_node=7,
        threads_per_rank=1,
        sim_steps=4,
        granularity=EndpointGranularity.RANK,
    )


def run_once(workload):
    """(wall seconds, result) of one end-to-end no-plan run with
    ``workload`` registered as ``alya``."""
    register(workload, replace=True)
    try:
        t0 = time.perf_counter()
        result = ExperimentRunner().run(make_spec())
        return time.perf_counter() - t0, result
    finally:
        register(PRODUCTION, replace=True)


def measure_overhead(repeats: int = REPEATS) -> float:
    """One measurement round: best-of-``repeats`` ratio, orders
    alternated so machine drift hits both lowerings equally."""
    prod, base = [], []
    for i in range(repeats):
        first, second = (
            (PRODUCTION, BASELINE) if i % 2 == 0
            else (BASELINE, PRODUCTION)
        )
        a = run_once(first)[0]
        b = run_once(second)[0]
        if first is PRODUCTION:
            prod.append(a), base.append(b)
        else:
            base.append(a), prod.append(b)
    return min(prod) / min(base) - 1.0


def test_baseline_and_production_results_agree():
    """Sanity: the baseline lowering is the same physics, fault lines
    aside."""
    _, production = run_once(PRODUCTION)
    _, baseline = run_once(BASELINE)
    assert production.elapsed_seconds == baseline.elapsed_seconds
    assert production.sim_span_seconds == baseline.sim_span_seconds
    assert production.messages == baseline.messages


def test_no_injector_constructed_off_path():
    """Without a plan the runner must not even build an injector."""

    class Boom:
        def __init__(self, *a, **kw):
            raise AssertionError("FaultInjector built without a FaultPlan")

    original = runner_mod.FaultInjector
    runner_mod.FaultInjector = Boom
    try:
        result = ExperimentRunner().run(make_spec())
    finally:
        runner_mod.FaultInjector = original
    assert result.faults_injected == 0
    assert result.fault_timeline_digest == ""


def test_faults_off_overhead_under_2pct():
    run_once(PRODUCTION)  # warm both lowerings before timing
    run_once(BASELINE)
    rounds = []
    for _ in range(MAX_ROUNDS):
        overhead = measure_overhead()
        rounds.append(overhead)
        if overhead < MAX_OFF_OVERHEAD:
            break
    print(
        "\nfaults-off overhead rounds: "
        + " ".join(f"{r:+.2%}" for r in rounds)
        + f" (budget {MAX_OFF_OVERHEAD:.0%})"
    )
    assert min(rounds) < MAX_OFF_OVERHEAD, (
        f"no-plan pipeline measured above the {MAX_OFF_OVERHEAD:.0%} "
        f"budget in every round: "
        + ", ".join(f"{r:+.1%}" for r in rounds)
    )


if __name__ == "__main__":
    test_baseline_and_production_results_agree()
    test_no_injector_constructed_off_path()
    test_faults_off_overhead_under_2pct()
    print("bench_fault_overhead: OK")
