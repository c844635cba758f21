"""Parameter sweeps: run experiment grids, export the results.

The studies in :mod:`repro.core.study` are the paper's fixed evaluations;
each builds its own grid and runs it through
:func:`~repro.core.study.run_grid`, not through this module.
:class:`Sweep` is for users with their own questions ("how does *my*
case behave on CTE-POWER between 2 and 32 nodes under all runtimes?").
It produces flat result rows suitable for CSV export or further
analysis.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from typing import TYPE_CHECKING

from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.core.study import _default_executor
from repro.hardware.cluster import ClusterSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.executor import ExperimentExecutor
    from repro.faults.plan import FaultPlan
    from repro.obs.span import Observability


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a runtime/technique at a node count."""

    label: str
    runtime_name: str
    technique: Optional[BuildTechnique]
    n_nodes: int


@dataclass
class SweepResult:
    """All results of one sweep, queryable and exportable.

    A row's second element is normally an
    :class:`~repro.core.metrics.ExperimentResult`; under a ``keep_going``
    executor it may instead be an annotated
    :class:`~repro.exec.failures.FailedPoint` — the grid keeps its shape
    and failures stay visible instead of becoming silent holes.
    """

    rows: list[tuple[SweepPoint, object]] = field(default_factory=list)

    def by_label(self, label: str) -> dict[int, ExperimentResult]:
        """node count → result for one variant (failed points skipped).

        Raises :class:`ValueError` when the sweep holds two rows for the
        same ``(label, n_nodes)`` — collapsing them last-write-wins would
        silently discard a result.
        """
        out: dict[int, ExperimentResult] = {}
        for p, r in self.rows:
            if p.label != label or not isinstance(r, ExperimentResult):
                continue
            if p.n_nodes in out:
                raise ValueError(
                    f"duplicate sweep rows for label {label!r} at "
                    f"{p.n_nodes} nodes; disambiguate the variant labels"
                )
            out[p.n_nodes] = r
        return out

    def labels(self) -> list[str]:
        seen: list[str] = []
        for p, _ in self.rows:
            if p.label not in seen:
                seen.append(p.label)
        return seen

    def to_csv(self) -> str:
        """Flat CSV: one row per (variant, node count).

        Failed points export with ``status=failed`` and the error in the
        ``error`` column (metric columns empty) — distinct rows, never
        silent holes.
        """
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "label",
                "runtime",
                "technique",
                "nodes",
                "ranks",
                "avg_step_seconds",
                "elapsed_seconds",
                "deployment_seconds",
                "image_size_bytes",
                "messages",
                "bytes_sent",
                "compute_fraction",
                "halo_fraction",
                "collective_fraction",
                "coupling_fraction",
                "status",
                "error",
            ]
        )
        for p, r in self.rows:
            head = [
                p.label,
                p.runtime_name,
                p.technique.value if p.technique else "",
                p.n_nodes,
            ]
            if not isinstance(r, ExperimentResult):
                writer.writerow(
                    head
                    + [""] * 11
                    + ["failed", f"{r.error_type}: {r.error}"]
                )
                continue
            fr = r.phase_fractions
            writer.writerow(
                head
                + [
                    r.total_ranks,
                    f"{r.avg_step_seconds:.9f}",
                    f"{r.elapsed_seconds:.6f}",
                    f"{r.deployment_seconds:.6f}",
                    f"{r.image_size_bytes:.0f}",
                    r.messages,
                    f"{r.bytes_sent:.0f}",
                    f"{fr.get('compute', 0.0):.6f}",
                    f"{fr.get('halo', 0.0):.6f}",
                    f"{fr.get('collective', 0.0):.6f}",
                    f"{fr.get('coupling', 0.0):.6f}",
                    "ok",
                    "",
                ]
            )
        return buf.getvalue()


class Sweep:
    """A grid of experiments over (variants × node counts).

    Parameters
    ----------
    cluster / workmodel / workload:
        Fixed for the whole sweep; ``workload`` names the registered
        application model the ``workmodel`` belongs to (default
        ``"alya"``).
    variants:
        ``(label, runtime_name, technique)`` triples.
    nodes:
        Node counts.
    ranks_per_node / threads_per_rank / sim_steps / granularity:
        Forwarded to every spec.
    executor:
        The :class:`~repro.exec.executor.ExperimentExecutor` running the
        grid; defaults to a serial, uncached one.  Pass
        ``ExperimentExecutor(workers=N, cache=True)`` for parallel,
        cached execution — results are reassembled in grid order either
        way, so the output is identical.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        workmodel: object,
        variants: Sequence[tuple[str, str, Optional[BuildTechnique]]],
        nodes: Iterable[int],
        ranks_per_node: Optional[int] = None,
        threads_per_rank: int = 1,
        sim_steps: int = 2,
        granularity: EndpointGranularity = EndpointGranularity.AUTO,
        executor: "Optional[ExperimentExecutor]" = None,
        fault_plan: "Optional[FaultPlan]" = None,
        workload: str = "alya",
    ) -> None:
        if not variants:
            raise ValueError("a sweep needs at least one variant")
        self.cluster = cluster
        self.workmodel = workmodel
        self.workload = workload
        self.variants = list(variants)
        self.nodes = sorted(set(nodes))
        if not self.nodes:
            raise ValueError("a sweep needs at least one node count")
        self.ranks_per_node = (
            ranks_per_node if ranks_per_node is not None else cluster.node.cores
        )
        self.threads_per_rank = threads_per_rank
        self.sim_steps = sim_steps
        self.granularity = granularity
        #: Optional :class:`~repro.faults.plan.FaultPlan` applied to
        #: every grid point (None = perfect machine).
        self.fault_plan = fault_plan
        self.executor = executor or _default_executor()

    def grid(self) -> list[tuple[SweepPoint, ExperimentSpec]]:
        """The (point, spec) pairs in canonical grid order
        (variants-major, node counts ascending)."""
        out: list[tuple[SweepPoint, ExperimentSpec]] = []
        for label, runtime_name, technique in self.variants:
            for n in self.nodes:
                point = SweepPoint(label, runtime_name, technique, n)
                spec = ExperimentSpec(
                    name=f"sweep-{label}-{n}n",
                    cluster=self.cluster,
                    runtime_name=runtime_name,
                    technique=technique,
                    workmodel=self.workmodel,
                    n_nodes=n,
                    ranks_per_node=self.ranks_per_node,
                    threads_per_rank=self.threads_per_rank,
                    sim_steps=self.sim_steps,
                    granularity=self.granularity,
                    fault_plan=self.fault_plan,
                    workload=self.workload,
                )
                out.append((point, spec))
        return out

    def run(
        self,
        progress: Optional[Callable[[SweepPoint], None]] = None,
        obs: "Optional[Observability]" = None,
    ) -> SweepResult:
        """Run the whole grid; rows come back in deterministic grid order.

        ``progress`` is called once per point, in grid order, when the
        point is *scheduled* (with a parallel executor, points then run
        concurrently).  ``obs`` receives per-point executor markers and
        merged traces — see :mod:`repro.exec.executor`.
        """
        pairs = self.grid()
        if progress is not None:
            for point, _ in pairs:
                progress(point)
        results = self.executor.run_many([s for _, s in pairs], obs=obs)
        return SweepResult(
            rows=[(point, r) for (point, _), r in zip(pairs, results)]
        )
