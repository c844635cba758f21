"""Literal pin of every spec the study grids and figure templates build.

A recording executor stands in for the real one: its ``run_many``
appends ``(spec.name, spec_key(spec))`` for each spec and answers with a
fixed result, so no simulation runs.  It drives every paper study, the
extension studies, :meth:`Sweep.grid`, the ``repro-study trace``
template (with :meth:`ExperimentRunner.run` recorded the same way) and
the serve universes.  One SHA-256 over the ordered list pins each
spec's name, its simulation-relevant fields (via the spec key) and the
grid order.  A refactor of how specs are assembled that keeps this pin
runs exactly the same experiments.
"""

import hashlib
import json

from repro.cli import main
from repro.containers.recipes import BuildTechnique
from repro.core.metrics import ExperimentResult
from repro.core.runner import ExperimentRunner
from repro.core.study import (
    ContainerSolutionsStudy,
    FaultSensitivityStudy,
    PortabilityStudy,
    ScalabilityStudy,
)
from repro.core.study_ext import WeakScalingStudy, WorkloadScalingStudy
from repro.core.sweep import Sweep
from repro.exec.executor import ExecStats
from repro.exec.speckey import spec_key
from repro.faults import FaultPlan
from repro.hardware import catalog
from repro.serve.loadgen import default_universe
from repro.workloads import list_workloads

#: The study grids alone: 173 specs.
STUDY_PIN = "5171b546e9c1793b293f324dccc63981f8a3abcafbd79402e85062eab114495b"
#: Studies, sweeps, trace template and serve universes: 205 specs.
SPEC_PIN = "cfbf5e6452517fab6cc553932f2e4769cc572cd45edcedf7127cd8a047861828"


def _fixed(spec) -> ExperimentResult:
    return ExperimentResult(
        spec_name=spec.name,
        runtime_name=spec.runtime_name,
        cluster_name=spec.cluster.name,
        n_nodes=spec.n_nodes,
        total_ranks=spec.total_ranks,
        threads_per_rank=spec.threads_per_rank,
        avg_step_seconds=1.0,
        elapsed_seconds=1.0,
        sim_span_seconds=1.0,
        phases={"solver.compute": 1.0},
    )


class RecordingExecutor:
    """Records each submitted spec; runs nothing."""

    def __init__(self, log: list) -> None:
        self.log = log
        self.stats = ExecStats()

    def run_many(self, specs, obs=None):
        out = []
        for spec in specs:
            self.log.append((spec.name, spec_key(spec)))
            out.append(_fixed(spec))
        return out


def _study_specs(log: list) -> None:
    ex = RecordingExecutor(log)
    ContainerSolutionsStudy(executor=ex).run()
    ContainerSolutionsStudy(configs=((28, 4),), executor=ex).run()
    portability = PortabilityStudy(executor=ex)
    portability.run_fig2()
    portability.run_three_archs()
    ScalabilityStudy(executor=ex).run()
    FaultSensitivityStudy(executor=ex).run()
    WeakScalingStudy(executor=ex).run()
    for workload in list_workloads():
        for mode in ("strong", "weak"):
            WorkloadScalingStudy(
                workload=workload, mode=mode, executor=ex
            ).run()


def _sweep_specs(log: list) -> None:
    variants = (
        ("bare-metal", "bare-metal", None),
        ("ss", "singularity", BuildTechnique.SYSTEM_SPECIFIC),
    )
    plan = FaultPlan(seed=3, link_degrade_rate=2.0, horizon=1.0)
    from repro.core import calibration

    for kwargs in ({}, {"fault_plan": plan, "threads_per_rank": 2,
                        "ranks_per_node": 8}):
        sweep = Sweep(
            cluster=catalog.CTE_POWER,
            workmodel=calibration.ctepower_cfd_workmodel(),
            variants=variants,
            nodes=(4, 2),
            **kwargs,
        )
        log.extend((spec.name, spec_key(spec)) for _, spec in sweep.grid())


TRACE_CASES = (
    ["--fig", "fig1"],
    ["--fig", "fig3"],
    ["--fig", "fig1", "--workload", "stencil"],
    ["--fig", "fig3", "--workload", "stencil", "--nodes", "8"],
    ["--fig", "fig1", "--runtime", "bare-metal", "--nodes", "2"],
    ["--fig", "fig3", "--runtime", "bare-metal", "--sim-steps", "3"],
)


def _trace_specs(log: list, tmp_path, monkeypatch) -> None:
    def record(self, spec, obs=None):
        log.append((spec.name, spec_key(spec)))
        return _fixed(spec)

    monkeypatch.setattr(ExperimentRunner, "run", record)
    for i, case in enumerate(TRACE_CASES):
        assert main(["trace", *case, "--out", str(tmp_path / f"t{i}")]) == 0


def _universe_specs(log: list) -> None:
    for fig in ("fig1", "fig3"):
        for workload in list_workloads():
            nodes = 2 if fig == "fig1" else 4
            for spec in default_universe(3, fig=fig, nodes=nodes,
                                         workload=workload):
                log.append((spec.name, spec_key(spec)))


def _digest(log: list) -> str:
    return hashlib.sha256(json.dumps(log).encode()).hexdigest()


def test_study_grids_are_pinned():
    log: list = []
    _study_specs(log)
    assert len(log) == 173
    assert _digest(log) == STUDY_PIN


def test_every_spec_is_pinned(tmp_path, monkeypatch, capsys):
    log: list = []
    _study_specs(log)
    _sweep_specs(log)
    _trace_specs(log, tmp_path, monkeypatch)
    _universe_specs(log)
    assert len(log) == 205
    assert _digest(log) == SPEC_PIN
