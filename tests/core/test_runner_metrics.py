"""Tests for the end-to-end runner and the metrics layer."""

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.metrics import (
    ExperimentResult,
    speedup_series,
)
from repro.core.runner import ExperimentRunner
from repro.hardware import catalog


def small_wm(case=CaseKind.CFD):
    kwargs = dict(case=case, n_cells=500_000, cg_iters_per_step=5,
                  nominal_timesteps=100)
    if case is CaseKind.FSI:
        kwargs.update(solid_flops_per_step=1e7, interface_cells=5000)
    return AlyaWorkModel(**kwargs)


def run(runtime="bare-metal", technique=None, cluster=catalog.LENOX,
        n_nodes=2, rpn=4, threads=1, case=CaseKind.CFD,
        granularity=EndpointGranularity.RANK):
    spec = ExperimentSpec(
        name=f"t-{runtime}",
        cluster=cluster,
        runtime_name=runtime,
        technique=technique,
        workmodel=small_wm(case),
        n_nodes=n_nodes,
        ranks_per_node=rpn,
        threads_per_rank=threads,
        sim_steps=2,
        granularity=granularity,
    )
    return ExperimentRunner().run(spec)


def test_bare_metal_run_produces_metrics():
    r = run()
    assert r.avg_step_seconds > 0
    assert r.elapsed_seconds == pytest.approx(r.avg_step_seconds * 100)
    assert r.deployment_seconds == 0
    assert r.image_size_bytes == 0
    assert r.messages > 0


def test_singularity_run_includes_deployment_and_image():
    r = run("singularity", BuildTechnique.SELF_CONTAINED)
    assert r.deployment_seconds > 0
    assert r.image_size_bytes > 0
    assert r.runtime_name == "singularity"


def test_docker_slower_than_bare_metal():
    bare = run()
    dock = run("docker", BuildTechnique.SELF_CONTAINED)
    assert dock.avg_step_seconds > bare.avg_step_seconds


def test_node_granularity_runs():
    r = run(
        cluster=catalog.MARENOSTRUM4,
        n_nodes=4,
        rpn=48,
        granularity=EndpointGranularity.NODE,
    )
    assert r.total_ranks == 192
    assert r.avg_step_seconds > 0


def test_fsi_case_runs():
    r = run(case=CaseKind.FSI)
    assert r.avg_step_seconds > 0


def test_threads_reduce_step_time():
    t1 = run(rpn=4, threads=1).avg_step_seconds
    t4 = run(rpn=4, threads=4).avg_step_seconds
    assert t4 < t1


def test_runs_are_deterministic():
    a = run("singularity", BuildTechnique.SELF_CONTAINED)
    b = run("singularity", BuildTechnique.SELF_CONTAINED)
    assert a.avg_step_seconds == b.avg_step_seconds
    assert a.deployment_seconds == b.deployment_seconds
    assert a.messages == b.messages


# ------------------------------- metrics -------------------------------------


def fake_result(n_nodes, elapsed):
    return ExperimentResult(
        spec_name="f",
        runtime_name="bare-metal",
        cluster_name="X",
        n_nodes=n_nodes,
        total_ranks=n_nodes * 4,
        threads_per_rank=1,
        avg_step_seconds=elapsed / 100,
        elapsed_seconds=elapsed,
    )


def test_speedup_series_basic():
    results = [fake_result(4, 100.0), fake_result(8, 60.0), fake_result(16, 40.0)]
    s = speedup_series(results)
    assert s == {
        4: pytest.approx(1.0),
        8: pytest.approx(100 / 60),
        16: pytest.approx(2.5),
    }


def test_speedup_series_explicit_base():
    results = [fake_result(8, 60.0), fake_result(16, 40.0)]
    s = speedup_series(results, base_nodes=8)
    assert s[16] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        speedup_series(results, base_nodes=4)


def test_speedup_series_validation():
    with pytest.raises(ValueError):
        speedup_series([])
    with pytest.raises(ValueError):
        speedup_series([fake_result(4, 1.0), fake_result(4, 2.0)])
