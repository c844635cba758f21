"""Serial/parallel parity: identical CSVs and obs digests, warm-cache replay.

The acceptance contract of the executor: a Fig. 1- or Fig. 3-shaped grid
run with ``workers=4`` yields byte-identical ``SweepResult.to_csv()``
output and an identical observability trace digest to the serial run,
and a warm-cache rerun executes zero simulations while producing the
same outputs.
"""

import dataclasses

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity
from repro.core.study import ScalabilityStudy, figure_spec
from repro.core.sweep import Sweep
from repro.exec import ExperimentExecutor
from repro.exec.failures import FailedPoint
from repro.faults import FaultPlan
from repro.hardware import catalog
from repro.obs import Observability, trace_digest

#: Fig. 1's four execution modes (label, runtime, technique).
FIG1_VARIANTS = (
    ("bare-metal", "bare-metal", None),
    ("singularity", "singularity", BuildTechnique.SELF_CONTAINED),
    ("shifter", "shifter", BuildTechnique.SELF_CONTAINED),
    ("docker", "docker", BuildTechnique.SELF_CONTAINED),
)

#: Fig. 3's three variants.
FIG3_VARIANTS = (
    ("bare-metal", "bare-metal", None),
    ("singularity system-specific", "singularity",
     BuildTechnique.SYSTEM_SPECIFIC),
    ("singularity self-contained", "singularity",
     BuildTechnique.SELF_CONTAINED),
)


def fig1_sweep(executor):
    wm = AlyaWorkModel(
        case=CaseKind.CFD, n_cells=400_000, cg_iters_per_step=4,
        nominal_timesteps=20,
    )
    return Sweep(
        cluster=catalog.LENOX,
        workmodel=wm,
        variants=FIG1_VARIANTS,
        nodes=[1, 2, 4],
        ranks_per_node=7,
        sim_steps=1,
        granularity=EndpointGranularity.RANK,
        executor=executor,
    )


def fig3_sweep(executor):
    wm = AlyaWorkModel(
        case=CaseKind.FSI, n_cells=4_000_000, cg_iters_per_step=5,
        nominal_timesteps=20, solid_flops_per_step=2e7,
        interface_cells=10_000,
    )
    return Sweep(
        cluster=catalog.MARENOSTRUM4,
        workmodel=wm,
        variants=FIG3_VARIANTS,
        nodes=[4, 8],
        sim_steps=1,
        granularity=EndpointGranularity.NODE,
        executor=executor,
    )


@pytest.mark.parametrize("make_sweep", [fig1_sweep, fig3_sweep],
                         ids=["fig1-shaped", "fig3-shaped"])
def test_workers4_matches_serial_csv_and_digest(make_sweep):
    obs_serial, obs_parallel = Observability(), Observability()
    serial = make_sweep(ExperimentExecutor(workers=1)).run(obs=obs_serial)
    parallel = make_sweep(ExperimentExecutor(workers=4)).run(obs=obs_parallel)
    assert serial.to_csv() == parallel.to_csv()
    assert trace_digest(obs_serial) == trace_digest(obs_parallel)


def test_warm_cache_rerun_reproduces_the_csv_without_executing(tmp_path):
    cold = ExperimentExecutor(workers=4, cache=True, cache_dir=tmp_path)
    first = fig1_sweep(cold).run()
    assert cold.stats.misses == len(first.rows)

    warm = ExperimentExecutor(workers=4, cache=True, cache_dir=tmp_path)
    second = fig1_sweep(warm).run()
    assert warm.stats.executed == 0
    assert warm.stats.hits == len(second.rows)
    assert first.to_csv() == second.to_csv()


def test_cold_cache_run_matches_uncached_csv_and_digest(tmp_path):
    obs_plain, obs_cached = Observability(), Observability()
    plain = fig1_sweep(ExperimentExecutor(workers=2)).run(obs=obs_plain)
    cached = fig1_sweep(
        ExperimentExecutor(workers=2, cache=True, cache_dir=tmp_path)
    ).run(obs=obs_cached)
    assert plain.to_csv() == cached.to_csv()
    # Cold-cache markers are exec.submit, same as uncached: same digest.
    assert trace_digest(obs_plain) == trace_digest(obs_cached)


def test_scalability_study_parity_serial_vs_parallel():
    wm = AlyaWorkModel(
        case=CaseKind.FSI, n_cells=4_000_000, cg_iters_per_step=5,
        nominal_timesteps=20, solid_flops_per_step=2e7,
        interface_cells=10_000,
    )
    serial = ScalabilityStudy(
        workmodel=wm, nodes=(4, 8), sim_steps=1,
        executor=ExperimentExecutor(workers=1),
    ).run()
    parallel = ScalabilityStudy(
        workmodel=wm, nodes=(4, 8), sim_steps=1,
        executor=ExperimentExecutor(workers=4),
    ).run()
    assert serial.results == parallel.results
    assert serial.speedups() == parallel.speedups()


def test_crash_plan_fails_identically_at_any_worker_count():
    """A deterministic fault failure inside a pool worker is the same
    failed point as inline: the typed fault error crosses the process
    boundary intact instead of breaking the pool, and the healthy point
    beside it still completes."""
    plan = FaultPlan.load("seed=1,crash_rate=50,horizon=2,max_requeues=0")
    specs = [
        dataclasses.replace(
            figure_spec("fig1", f"crash-{rt}", runtime=rt, nodes=4),
            fault_plan=plan,
        )
        for rt in ("bare-metal", "docker")
    ]
    serial = ExperimentExecutor(workers=1, keep_going=True).run_many(specs)
    pooled = ExperimentExecutor(workers=2, keep_going=True).run_many(specs)
    failed = serial[0]
    assert isinstance(failed, FailedPoint)
    assert (failed.error_type, failed.attempts) == ("RankFailure", 1)
    assert [
        (p.error_type, p.error, p.attempts) for p in pooled
        if isinstance(p, FailedPoint)
    ] == [(failed.error_type, failed.error, failed.attempts)]
    assert pooled == serial
