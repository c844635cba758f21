"""Extension studies beyond the paper's three evaluations.

Same shape as :mod:`repro.core.study`: a class per question, structured
outcomes, and deterministic results.

- :class:`WeakScalingStudy` — constant work per node (the paper only
  strong-scales): flat step times for fabric-integrated modes, growing
  for the TCP-fallback self-contained container.
- :class:`DeploymentScalingStudy` — §B.1's deployment metrics along the
  node axis: image-file runtimes stay flat, Docker's registry fan-out
  grows with the node count.
- :class:`WorkloadScalingStudy` — strong/weak scaling of any registered
  workload (:mod:`repro.workloads`) under all four Lenox runtimes, with
  the ideal curve (linear speedup / flat step time) and per-point
  parallel efficiency computed for comparison.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import alya_recipe
from repro.core.deployment import image_for, make_distribution, runtime_class
from repro.core.experiment import ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.core.study import (
    IMAGE_FLAVOURS,
    RUNTIMES,
    _default_executor,
    full_node_spec,
    run_grid,
)
from repro.des.engine import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.oskernel.nodeos import NodeOS

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.executor import ExperimentExecutor
    from repro.faults.plan import FaultPlan
    from repro.obs.span import Observability


@dataclass
class WeakScalingOutcome:
    """Per-variant step times at constant cells/node."""

    results: dict[str, dict[int, ExperimentResult]]
    cells_per_node: int

    def growth(self, label: str) -> float:
        """step(max nodes) / step(min nodes) for one variant."""
        series = self.results[label]
        lo, hi = min(series), max(series)
        return series[hi].avg_step_seconds / series[lo].avg_step_seconds


class WeakScalingStudy:
    """Constant work per node on MareNostrum4."""

    def __init__(
        self,
        cells_per_node: int = 400_000,
        nodes: tuple[int, ...] = (4, 16, 64),
        sim_steps: int = 2,
        executor: "Optional[ExperimentExecutor]" = None,
    ) -> None:
        if cells_per_node < 1:
            raise ValueError("cells_per_node must be >= 1")
        self.cells_per_node = cells_per_node
        self.nodes = tuple(sorted(set(nodes)))
        self.sim_steps = sim_steps
        self.executor = executor or _default_executor()

    def run(self, obs: "Optional[Observability]" = None) -> WeakScalingOutcome:
        results = run_grid(self.executor, (
            (label, n, full_node_spec(
                catalog.MARENOSTRUM4, name=f"weak-{label}-{n}",
                runtime_name=rt, technique=tech, n_nodes=n,
                sim_steps=self.sim_steps,
                workmodel=AlyaWorkModel(
                    case=CaseKind.CFD,
                    n_cells=self.cells_per_node * n,
                    cg_iters_per_step=25,
                    nominal_timesteps=1,
                ),
            ))
            for label, rt, tech in IMAGE_FLAVOURS
            for n in self.nodes
        ), obs)
        return WeakScalingOutcome(
            results=results, cells_per_node=self.cells_per_node
        )


@dataclass
class DeploymentScalingOutcome:
    """runtime → node count → deployment seconds."""

    seconds: dict[str, dict[int, float]] = field(default_factory=dict)

    def growth(self, runtime: str) -> float:
        series = self.seconds[runtime]
        lo, hi = min(series), max(series)
        return series[hi] / max(series[lo], 1e-12)


class DeploymentScalingStudy:
    """Deployment overhead vs node count, per runtime.

    Runs the runtimes directly (no compatibility gate) on a hypothetical
    MareNostrum4 where all of them are installed — this is an
    extrapolation study, not a reproduction of a measured run.
    """

    def __init__(self, nodes: tuple[int, ...] = (4, 16, 64)) -> None:
        self.nodes = tuple(sorted(set(nodes)))
        base = catalog.MARENOSTRUM4
        self.cluster = dataclasses.replace(
            base,
            name=f"{base.name}*",
            admin_rights=True,
            installed_runtimes={
                "singularity": "2.4.2",
                "shifter": "16.08.3",
                "docker": "1.11.1",
            },
        )

    def _deploy_once(self, runtime_name: str, technique, n_nodes: int) -> float:
        env = Environment()
        cluster = Cluster(env, self.cluster, num_nodes=n_nodes)
        node_os = [NodeOS(self.cluster, i) for i in range(n_nodes)]
        runtime_cls = runtime_class(runtime_name)
        image = image_for(
            runtime_cls, alya_recipe(technique, arch=self.cluster.node.arch)
        )
        registry, gateway = make_distribution(env, image)
        rt = runtime_cls()
        holder: dict = {}

        def main():
            holder["r"] = yield env.process(
                rt.deploy(env, cluster, node_os, image,
                          registry=registry, gateway=gateway)
            )

        env.process(main())
        env.run()
        return holder["r"][1].total_seconds

    def run(self) -> DeploymentScalingOutcome:
        outcome = DeploymentScalingOutcome()
        for label, rt, tech in RUNTIMES[1:]:
            outcome.seconds[label] = {
                n: self._deploy_once(rt, tech, n) for n in self.nodes
            }
        return outcome


@dataclass
class WorkloadScalingOutcome:
    """Scaling series per runtime variant, plus the ideal-curve math.

    ``results`` maps variant label → node count →
    :class:`ExperimentResult` (failed keep-going points are dropped from
    the series).  The *ideal* reference is the classic one measured from
    each variant's own smallest run: linear speedup for strong scaling
    (``T(n) = T(base) * base / n``), a flat step time for weak scaling
    (``T(n) = T(base)``); efficiency is measured-vs-ideal, 1.0 = ideal.
    """

    workload: str
    mode: str
    results: "dict[str, dict[int, ExperimentResult]]"

    def series(self, label: str) -> "dict[int, float]":
        """node count → measured average step seconds for one variant."""
        return {
            n: r.avg_step_seconds
            for n, r in sorted(self.results[label].items())
            if isinstance(r, ExperimentResult)
        }

    def ideal_series(self, label: str) -> "dict[int, float]":
        """node count → ideal step seconds (from the smallest run)."""
        series = self.series(label)
        base = min(series)
        if self.mode == "strong":
            return {n: series[base] * base / n for n in series}
        return {n: series[base] for n in series}

    def speedup(self, label: str, n: int) -> float:
        """Measured speedup of ``n`` nodes over the variant's base."""
        series = self.series(label)
        return series[min(series)] / series[n]

    def efficiency(self, label: str, n: int) -> float:
        """Measured / ideal at ``n`` nodes (1.0 = perfect scaling)."""
        return self.ideal_series(label)[n] / self.series(label)[n]

    def efficiencies(self, label: str) -> "dict[int, float]":
        return {n: self.efficiency(label, n) for n in self.series(label)}


class WorkloadScalingStudy:
    """Strong/weak scaling of one registered workload on Lenox.

    Lenox is the one catalogue machine with all four runtimes installed
    (and the admin rights Docker's daemon needs), so the grid is Fig. 1's
    runtime axis (:data:`~repro.core.study.RUNTIMES`) — applied to any
    workload the registry knows, at its Fig. 1 work model.

    ``mode="strong"`` fixes the work model; ``mode="weak"`` rebuilds the
    model per node count at the strong model's cells per node at the
    largest count, so the ideal step time is flat.
    """

    def __init__(
        self,
        workload: str = "stencil",
        mode: str = "strong",
        nodes: tuple[int, ...] = (1, 2, 4),
        sim_steps: int = 2,
        executor: "Optional[ExperimentExecutor]" = None,
        fault_plan: "Optional[FaultPlan]" = None,
    ) -> None:
        if mode not in ("strong", "weak"):
            raise ValueError("mode must be 'strong' or 'weak'")
        from repro.workloads import get_workload

        self.workload = workload
        self._entry = get_workload(workload)  # fail fast on a typo
        self.mode = mode
        self.nodes = tuple(sorted(set(nodes)))
        if not self.nodes:
            raise ValueError("need at least one node count")
        self.sim_steps = sim_steps
        self.workmodel = self._entry.default_workmodel("fig1")
        self.cells_per_node = max(
            1, self.workmodel.n_cells // max(self.nodes)
        )
        self.executor = executor or _default_executor()
        self.fault_plan = fault_plan

    # Lenox fig-1 geometry (7 ranks x 4 threads = 28 cores).
    RANKS_PER_NODE = 7
    THREADS_PER_RANK = 4

    def _spec(self, label: str, rt: str, tech, n: int) -> ExperimentSpec:
        # Strong-mode names keep the form ``Sweep`` gives its points:
        # result fingerprints are keyed by spec name.
        strong = self.mode == "strong"
        return ExperimentSpec(
            name=(f"sweep-{label}-{n}n" if strong
                  else f"weak-{self.workload}-{label}-{n}"),
            cluster=catalog.LENOX,
            runtime_name=rt,
            technique=tech,
            workmodel=(
                self.workmodel if strong else dataclasses.replace(
                    self.workmodel, n_cells=self.cells_per_node * n)
            ),
            n_nodes=n,
            ranks_per_node=self.RANKS_PER_NODE,
            threads_per_rank=self.THREADS_PER_RANK,
            sim_steps=self.sim_steps,
            fault_plan=self.fault_plan,
            workload=self.workload,
        )

    def run(
        self, obs: "Optional[Observability]" = None
    ) -> WorkloadScalingOutcome:
        return WorkloadScalingOutcome(
            workload=self.workload,
            mode=self.mode,
            results=run_grid(self.executor, (
                (label, n, self._spec(label, rt, tech, n))
                for label, rt, tech in RUNTIMES
                for n in self.nodes
            ), obs),
        )
