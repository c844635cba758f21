"""The paper's evaluations (§B.1-§B.3) as runnable studies, plus the
fault-sensitivity extension built on :mod:`repro.faults`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Optional

from repro.alya.workmodel import AlyaWorkModel
from repro.containers.compat import (
    IncompatibleArchitectureError,
    check_architecture,
)
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.containers.builder import ImageBuilder
from repro.core import calibration
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.metrics import ExperimentResult, speedup_series
from repro.faults.plan import FaultPlan
from repro.hardware import catalog
from repro.hardware.cluster import ClusterSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.executor import ExperimentExecutor
    from repro.obs.span import Observability


def _default_executor() -> "ExperimentExecutor":
    """A serial, uncached executor (imported lazily — :mod:`repro.exec`
    imports this package's spec/result types)."""
    from repro.exec.executor import ExperimentExecutor

    return ExperimentExecutor(workers=1)


#: The image-flavour axis of Figs. 2 and 3 as ``(label, runtime_name,
#: technique)`` rows.  The fault study runs the two Singularity rows.
IMAGE_FLAVOURS: tuple[tuple[str, str, Optional[BuildTechnique]], ...] = (
    ("bare-metal", "bare-metal", None),
    ("singularity system-specific", "singularity",
     BuildTechnique.SYSTEM_SPECIFIC),
    ("singularity self-contained", "singularity",
     BuildTechnique.SELF_CONTAINED),
)

#: The runtime axis of Fig. 1, in its order, as ``(label, runtime_name,
#: technique)`` rows: bare metal and the three runtimes on the
#: self-contained image.  The deployment study runs the container rows.
RUNTIMES: tuple[tuple[str, str, Optional[BuildTechnique]], ...] = (
    ("bare-metal", "bare-metal", None),
    ("singularity", "singularity", BuildTechnique.SELF_CONTAINED),
    ("shifter", "shifter", BuildTechnique.SELF_CONTAINED),
    ("docker", "docker", BuildTechnique.SELF_CONTAINED),
)


def full_node_spec(cluster: ClusterSpec, **fields) -> ExperimentSpec:
    """A spec on ``cluster`` with one single-threaded rank per core and
    one endpoint per node — the geometry of every pure-MPI grid in the
    paper.  ``fields`` are the other :class:`ExperimentSpec` fields."""
    return ExperimentSpec(
        cluster=cluster,
        ranks_per_node=cluster.node.cores,
        threads_per_rank=1,
        granularity=EndpointGranularity.NODE,
        **fields,
    )


def run_grid(
    executor: "ExperimentExecutor",
    cells: Iterable[tuple[Hashable, Hashable, ExperimentSpec]],
    obs: "Optional[Observability]" = None,
) -> dict:
    """Run ``(row, column, spec)`` cells through one ``run_many`` call;
    returns ``{row: {column: outcome}}`` in cell order."""
    cells = list(cells)
    outcomes = executor.run_many([spec for _, _, spec in cells], obs=obs)
    grid: dict = {}
    for (row, column, _), outcome in zip(cells, outcomes):
        grid.setdefault(row, {})[column] = outcome
    return grid


#: Default runtime and build technique of each figure template.
_FIGURE_RUNTIME = {
    "fig1": ("docker", BuildTechnique.SELF_CONTAINED),
    "fig3": ("singularity", BuildTechnique.SYSTEM_SPECIFIC),
}


def figure_spec(
    fig: str,
    name: str,
    runtime: Optional[str] = None,
    nodes: int = 2,
    sim_steps: int = 1,
    workload: str = "alya",
) -> ExperimentSpec:
    """One run on a paper figure's shape: ``fig1`` is Lenox at the 7x4
    hybrid layout with one endpoint per rank, ``fig3`` is MareNostrum4
    full nodes.

    ``name`` is a pattern for the spec label; ``{fig}``, ``{runtime}``,
    ``{nodes}`` and ``{tag}`` are filled in (``tag`` is empty for Alya
    and ``"<workload>-"`` otherwise, the historical names the golden
    fixtures encode).  The work model is the ``workload``'s registry
    default for the figure.
    """
    if fig not in _FIGURE_RUNTIME:
        raise ValueError(f"unknown figure shape {fig!r} (fig1|fig3)")
    from repro.workloads import get_workload

    default_runtime, technique = _FIGURE_RUNTIME[fig]
    runtime = runtime or default_runtime
    tag = "" if workload == "alya" else f"{workload}-"
    fields = dict(
        name=name.format(fig=fig, runtime=runtime, nodes=nodes, tag=tag),
        runtime_name=runtime,
        technique=None if runtime == "bare-metal" else technique,
        workmodel=get_workload(workload).default_workmodel(fig),
        n_nodes=nodes,
        sim_steps=sim_steps,
        workload=workload,
    )
    if fig == "fig3":
        return full_node_spec(catalog.MARENOSTRUM4, **fields)
    return ExperimentSpec(
        cluster=catalog.LENOX,
        ranks_per_node=7,
        threads_per_rank=4,
        granularity=EndpointGranularity.RANK,
        **fields,
    )

#: Fig. 1's x-axis: MPI ranks x OpenMP threads on 4 x 28 Lenox cores.
FIG1_CONFIGS: tuple[tuple[int, int], ...] = (
    (8, 14),
    (16, 7),
    (28, 4),
    (56, 2),
    (112, 1),
)

#: Fig. 2's x-axis: CTE-POWER node counts.
FIG2_NODES: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16)

#: Fig. 3's x-axis: MareNostrum4 node counts (up to 12,288 cores).
FIG3_NODES: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)


@dataclass
class SolutionsOutcome:
    """§B.1: per-(runtime, config) results plus the deployment table."""

    results: dict[tuple[str, tuple[int, int]], ExperimentResult]
    runtimes: tuple[str, ...]
    configs: tuple[tuple[int, int], ...]

    def time_of(self, runtime: str, config: tuple[int, int]) -> float:
        return self.results[(runtime, config)].elapsed_seconds

    def deployment_rows(self) -> list[dict]:
        """One row per runtime: deployment overhead, image size, exec time
        (at the paper's 28x4 hybrid sweet spot).  A failed point's row
        carries ``FAILED(<error>)`` in every metric."""
        probe = (28, 4)
        rows = []
        for rt in self.runtimes:
            r = self.results[(rt, probe)]
            if not isinstance(r, ExperimentResult):
                rows.append({"runtime": rt, **dict.fromkeys(
                    ("deployment_seconds", "image_size_mb",
                     "image_transfer_mb", "execution_seconds"),
                    f"FAILED({r.error_type})",
                )})
                continue
            rows.append(
                {
                    "runtime": rt,
                    "deployment_seconds": r.deployment_seconds,
                    "image_size_mb": r.image_size_bytes / 1e6,
                    "image_transfer_mb": r.image_transfer_bytes / 1e6,
                    "execution_seconds": r.elapsed_seconds,
                }
            )
        return rows


class ContainerSolutionsStudy:
    """Fig. 1 + the §B.1 metrics on Lenox.

    Four execution modes (bare-metal, Singularity, Shifter, Docker), five
    rank x thread layouts of the 112-core artery CFD case.
    """

    #: Lenox node count of every Fig. 1 layout (4 x 28 cores = 112).
    N_NODES = 4

    def __init__(
        self,
        workmodel: Optional[AlyaWorkModel] = None,
        configs: tuple[tuple[int, int], ...] = FIG1_CONFIGS,
        sim_steps: int = 2,
        executor: "Optional[ExperimentExecutor]" = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        for ranks, threads in configs:
            if ranks % self.N_NODES:
                raise ValueError(
                    f"config {ranks}x{threads}: {ranks} MPI ranks do not "
                    f"divide evenly across {self.N_NODES} nodes — "
                    f"{ranks % self.N_NODES} ranks would silently be "
                    f"dropped; use a rank count divisible by "
                    f"{self.N_NODES}"
                )
        self.workmodel = workmodel or calibration.lenox_cfd_workmodel()
        self.configs = configs
        self.sim_steps = sim_steps
        self.executor = executor or _default_executor()
        self.fault_plan = fault_plan

    def run(self, obs: "Optional[Observability]" = None) -> SolutionsOutcome:
        grid = run_grid(self.executor, (
            (label, (ranks, threads), ExperimentSpec(
                name=f"fig1-{label}-{ranks}x{threads}",
                cluster=catalog.LENOX,
                runtime_name=rt,
                technique=tech,
                workmodel=self.workmodel,
                n_nodes=self.N_NODES,
                ranks_per_node=ranks // self.N_NODES,
                threads_per_rank=threads,
                sim_steps=self.sim_steps,
                granularity=EndpointGranularity.RANK,
                fault_plan=self.fault_plan,
            ))
            for label, rt, tech in RUNTIMES
            for ranks, threads in self.configs
        ), obs)
        return SolutionsOutcome(
            results={
                (rt, config): r
                for rt, series in grid.items()
                for config, r in series.items()
            },
            runtimes=tuple(label for label, _, _ in RUNTIMES),
            configs=self.configs,
        )


@dataclass
class PortabilityOutcome:
    """§B.2: Fig. 2 series plus the three-architecture comparison."""

    fig2: dict[str, dict[int, ExperimentResult]]
    archs: dict[str, dict[str, ExperimentResult]] = field(default_factory=dict)
    cross_arch_errors: dict[str, str] = field(default_factory=dict)


class PortabilityStudy:
    """Fig. 2 on CTE-POWER and the three-architecture §B.2 comparison."""

    def __init__(
        self,
        workmodel: Optional[AlyaWorkModel] = None,
        nodes: tuple[int, ...] = FIG2_NODES,
        sim_steps: int = 2,
        executor: "Optional[ExperimentExecutor]" = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.workmodel = workmodel or calibration.ctepower_cfd_workmodel()
        self.nodes = nodes
        self.sim_steps = sim_steps
        self.executor = executor or _default_executor()
        self.fault_plan = fault_plan

    def run_fig2(
        self, obs: "Optional[Observability]" = None
    ) -> dict[str, dict[int, ExperimentResult]]:
        return run_grid(self.executor, (
            (label, n, full_node_spec(
                catalog.CTE_POWER, name=f"fig2-{label}-{n}n",
                runtime_name=rt, technique=tech, workmodel=self.workmodel,
                n_nodes=n, sim_steps=self.sim_steps,
                fault_plan=self.fault_plan,
            ))
            for label, rt, tech in IMAGE_FLAVOURS
            for n in self.nodes
        ), obs)

    def run_three_archs(
        self, workmodel: Optional[AlyaWorkModel] = None
    ) -> tuple[dict[str, dict[str, ExperimentResult]], dict[str, str]]:
        """Same containerised case, rebuilt per ISA, on the three machines.

        Also records the error each machine raises for a *foreign* image —
        the reason the rebuild is necessary.
        """
        wm = workmodel or calibration.portability_cfd_workmodel()
        machines = {
            "MareNostrum4": catalog.MARENOSTRUM4,
            "CTE-POWER": catalog.CTE_POWER,
            "ThunderX": catalog.THUNDERX,
        }
        errors: dict[str, str] = {}
        x86_image = ImageBuilder().build_sif(
            alya_recipe(BuildTechnique.SELF_CONTAINED)
        ).image
        results = run_grid(self.executor, (
            (name, tech.value, full_node_spec(
                cluster, name=f"arch-{name}-{tech.value}", runtime_name=rt,
                technique=tech, workmodel=wm, n_nodes=2,
                sim_steps=self.sim_steps, fault_plan=self.fault_plan,
            ))
            for name, cluster in machines.items()
            for _, rt, tech in IMAGE_FLAVOURS[1:]
        ))
        for name, cluster in machines.items():
            if cluster.node.arch is not x86_image.arch:
                try:
                    check_architecture(x86_image, cluster)
                except IncompatibleArchitectureError as exc:
                    errors[name] = str(exc)
        return results, errors

    def run(self) -> PortabilityOutcome:
        fig2 = self.run_fig2()
        archs, errors = self.run_three_archs()
        return PortabilityOutcome(
            fig2=fig2, archs=archs, cross_arch_errors=errors
        )


@dataclass
class ScalabilityOutcome:
    """§B.3: Fig. 3 — elapsed times and speedups per variant."""

    results: dict[str, dict[int, ExperimentResult]]
    base_nodes: int

    def speedups(self) -> dict[str, dict[int, float]]:
        # Failed points (keep-going executors) are skipped: a speedup
        # needs an elapsed time, and a variant whose base point failed
        # has none at all.
        out: dict[str, dict[int, float]] = {}
        for label, series in self.results.items():
            ok = [r for r in series.values()
                  if isinstance(r, ExperimentResult)]
            base_ok = isinstance(series[self.base_nodes], ExperimentResult)
            out[label] = speedup_series(ok, self.base_nodes) if base_ok else {}
        return out

    def ideal(self) -> dict[int, float]:
        some = next(iter(self.results.values()))
        return {n: n / self.base_nodes for n in sorted(some)}


class ScalabilityStudy:
    """Fig. 3: Alya FSI on MareNostrum4 up to 256 nodes / 12,288 cores."""

    def __init__(
        self,
        workmodel: Optional[AlyaWorkModel] = None,
        nodes: tuple[int, ...] = FIG3_NODES,
        sim_steps: int = 2,
        executor: "Optional[ExperimentExecutor]" = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.workmodel = workmodel or calibration.mn4_fsi_workmodel()
        self.nodes = nodes
        self.sim_steps = sim_steps
        self.executor = executor or _default_executor()
        self.fault_plan = fault_plan

    def run(self, obs: "Optional[Observability]" = None) -> ScalabilityOutcome:
        results = run_grid(self.executor, (
            (label, n, full_node_spec(
                catalog.MARENOSTRUM4, name=f"fig3-{label}-{n}n",
                runtime_name=rt, technique=tech, workmodel=self.workmodel,
                n_nodes=n, sim_steps=self.sim_steps,
                fault_plan=self.fault_plan,
            ))
            for label, rt, tech in IMAGE_FLAVOURS
            for n in self.nodes
        ), obs)
        return ScalabilityOutcome(results=results, base_nodes=min(self.nodes))


@dataclass
class FaultSensitivityOutcome:
    """Faults-per-run x image flavour grid, with relative degradation.

    ``results`` values are :class:`~repro.core.metrics.ExperimentResult`
    or — under a keep-going executor — annotated
    :class:`~repro.exec.failures.FailedPoint` rows.
    """

    results: dict[tuple[str, float], object]
    labels: tuple[str, ...]
    rates: tuple[float, ...]
    #: Simulated-time window [0, window) the faults were drawn over —
    #: the length of the shortest fault-free baseline run.
    window: float = 0.0

    def elapsed(self, label: str, rate: float) -> Optional[float]:
        r = self.results[(label, rate)]
        return (
            r.elapsed_seconds if isinstance(r, ExperimentResult) else None
        )

    def degradation(self) -> dict[str, dict[float, Optional[float]]]:
        """Per variant: elapsed(rate) / elapsed(fault-free baseline)."""
        base_rate = min(self.rates)
        out: dict[str, dict[float, Optional[float]]] = {}
        for label in self.labels:
            base = self.elapsed(label, base_rate)
            series: dict[float, Optional[float]] = {}
            for rate in self.rates:
                e = self.elapsed(label, rate)
                series[rate] = (
                    e / base if base and e is not None else None
                )
            out[label] = series
        return out

    def failed(self) -> list[tuple[str, float, object]]:
        """(label, rate, FailedPoint) for points that produced no result."""
        return [
            (label, rate, r)
            for (label, rate), r in self.results.items()
            if not isinstance(r, ExperimentResult)
        ]


class FaultSensitivityStudy:
    """How container flavours degrade as link faults intensify.

    Sweeps the number of injected link-degrade faults per run against
    the two Singularity image flavours on CTE-POWER.  The study runs in
    two stages: the fault-free baselines execute first (with no plan at
    all — the byte-identical golden path), then their measured duration
    becomes the window the seeded fault times are drawn over, so every
    injected fault actually lands *inside* the simulated run instead of
    after it.  Every fault count compiles the *same* seeded timeline for
    both flavours, so the comparison is apples-to-apples.

    Expected shape: the self-contained image rides the TCP fallback
    network path, spends several times more of its runtime communicating
    (see :func:`~repro.containers.compat.network_path_for`), and therefore
    loses disproportionately more time when NIC bandwidth degrades — the
    fault-tolerance analogue of the paper's Fig. 2 gap.
    """

    #: Link-degrade faults injected per run; 0 = fault-free baseline.
    FAULTS_PER_RUN: tuple[float, ...] = (0.0, 2.0, 4.0, 8.0)

    N_NODES = 4

    def __init__(
        self,
        workmodel: Optional[AlyaWorkModel] = None,
        rates: tuple[float, ...] = FAULTS_PER_RUN,
        seed: int = 42,
        sim_steps: int = 8,
        executor: "Optional[ExperimentExecutor]" = None,
        degrade_factor: float = 0.25,
    ) -> None:
        if not rates:
            raise ValueError("the study needs at least one fault count")
        if min(rates) != 0.0:
            raise ValueError(
                "rates must include 0.0 — degradation is measured "
                "against the fault-free baseline"
            )
        self.workmodel = workmodel or calibration.ctepower_cfd_workmodel()
        self.rates = tuple(sorted(set(float(r) for r in rates)))
        self.seed = seed
        self.sim_steps = sim_steps
        self.executor = executor or _default_executor()
        self.degrade_factor = degrade_factor

    def plan_for(self, count: float, window: float) -> Optional[FaultPlan]:
        """The plan injecting ``count`` faults over ``[0, window)``
        (None at count 0 — the golden path)."""
        if count == 0.0:
            return None
        return FaultPlan(
            seed=self.seed,
            link_degrade_rate=count / window,
            horizon=window,
            degrade_factor=self.degrade_factor,
            # Each episode degrades a NIC for a tenth of the run.
            fault_duration=window / 10.0,
        )

    def _stage(self, rates, window, obs) -> dict:
        """Run every flavour at ``rates``: ``{label: {rate: outcome}}``."""
        return run_grid(self.executor, (
            (label, rate, full_node_spec(
                catalog.CTE_POWER, name=f"faults-{label}-n{rate:g}",
                runtime_name=rt, technique=tech, workmodel=self.workmodel,
                n_nodes=self.N_NODES, sim_steps=self.sim_steps,
                fault_plan=self.plan_for(rate, window),
            ))
            for label, rt, tech in IMAGE_FLAVOURS[1:]
            for rate in rates
        ), obs)

    def run(
        self, obs: "Optional[Observability]" = None
    ) -> FaultSensitivityOutcome:
        # Stage 1: fault-free baselines — they both anchor the
        # degradation ratios and measure the fault window.
        base = self._stage((0.0,), 0.0, obs)
        windows = [
            r.sim_span_seconds
            for series in base.values()
            for r in series.values()
            if isinstance(r, ExperimentResult) and r.sim_span_seconds > 0
        ]
        if not windows:
            raise RuntimeError(
                "fault sensitivity study: every fault-free baseline "
                "failed; cannot derive the fault window"
            )
        # The shortest baseline, so the seeded fault times land inside
        # every variant's run.
        window = min(windows)

        # Stage 2: the faulted grid.
        faulted = self._stage([r for r in self.rates if r > 0], window, obs)
        return FaultSensitivityOutcome(
            results={
                (label, rate): r
                for stage in (base, faulted)
                for label, series in stage.items()
                for rate, r in series.items()
            },
            labels=tuple(base),
            rates=self.rates,
            window=window,
        )
