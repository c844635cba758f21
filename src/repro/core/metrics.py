"""Experiment results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.containers.runtime import DeploymentReport


@dataclass(frozen=True)
class ExperimentResult:
    """What one run measured.

    Attributes
    ----------
    spec_name / runtime_name / cluster_name:
        Identification.
    n_nodes / total_ranks / threads_per_rank:
        Geometry.
    avg_step_seconds:
        Mean simulated time per Alya step.
    elapsed_seconds:
        ``avg_step_seconds x nominal_timesteps`` — comparable to the
        paper's "average elapsed time".
    deployment:
        The runtime's deployment report (None for bare-metal, which has
        an all-zero report).
    image_size_bytes / image_transfer_bytes:
        §B.1 image metrics (0 for bare-metal).
    messages / bytes_sent / internode_messages:
        Communication totals over the simulated steps.
    """

    spec_name: str
    runtime_name: str
    cluster_name: str
    n_nodes: int
    total_ranks: int
    threads_per_rank: int
    avg_step_seconds: float
    elapsed_seconds: float
    deployment: Optional[DeploymentReport] = None
    image_size_bytes: float = 0.0
    image_transfer_bytes: float = 0.0
    messages: int = 0
    bytes_sent: float = 0.0
    internode_messages: int = 0
    #: Mean share of endpoint wall time per phase
    #: (compute/halo/collective/coupling); empty when not instrumented.
    phase_fractions: dict[str, float] = field(default_factory=dict, compare=False)
    #: Absolute per-phase breakdown of :attr:`elapsed_seconds`, keyed
    #: ``solver.<phase>`` — the values sum to ``elapsed_seconds`` (within
    #: float tolerance) whenever :attr:`phase_fractions` is populated.
    phases: dict[str, float] = field(default_factory=dict, compare=False)
    #: Faults the run's :class:`~repro.faults.injector.FaultInjector`
    #: recorded (0 without a plan).
    faults_injected: int = 0
    #: Times the job was requeued after a node crash.
    requeues: int = 0
    #: SHA-256 of the injected-fault timeline (empty without a plan) —
    #: the cross-worker determinism witness.
    fault_timeline_digest: str = ""
    #: Simulated clock time at job completion (submission through the
    #: last step, including deployment and launch) — the window a
    #: :class:`~repro.faults.plan.FaultPlan` horizon must cover for its
    #: clocked faults to land inside the run.
    sim_span_seconds: float = 0.0

    @property
    def deployment_seconds(self) -> float:
        """Deployment overhead (0 for bare-metal)."""
        return self.deployment.total_seconds if self.deployment else 0.0

    def to_json_dict(self) -> dict:
        """JSON-safe payload; inverse of :meth:`from_json_dict`.

        The round trip is lossless: floats survive JSON exactly (repr
        round-trips IEEE doubles), and every field — including the
        ``compare=False`` phase dicts — is carried.  This is the
        serialisation the :mod:`repro.exec.cache` result cache persists.
        """
        return {
            "spec_name": self.spec_name,
            "runtime_name": self.runtime_name,
            "cluster_name": self.cluster_name,
            "n_nodes": self.n_nodes,
            "total_ranks": self.total_ranks,
            "threads_per_rank": self.threads_per_rank,
            "avg_step_seconds": self.avg_step_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "deployment": (
                self.deployment.to_json_dict() if self.deployment else None
            ),
            "image_size_bytes": self.image_size_bytes,
            "image_transfer_bytes": self.image_transfer_bytes,
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "internode_messages": self.internode_messages,
            "phase_fractions": dict(self.phase_fractions),
            "phases": dict(self.phases),
            "faults_injected": self.faults_injected,
            "requeues": self.requeues,
            "fault_timeline_digest": self.fault_timeline_digest,
            "sim_span_seconds": self.sim_span_seconds,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentResult":
        deployment = payload.get("deployment")
        return cls(
            spec_name=payload["spec_name"],
            runtime_name=payload["runtime_name"],
            cluster_name=payload["cluster_name"],
            n_nodes=payload["n_nodes"],
            total_ranks=payload["total_ranks"],
            threads_per_rank=payload["threads_per_rank"],
            avg_step_seconds=payload["avg_step_seconds"],
            elapsed_seconds=payload["elapsed_seconds"],
            deployment=(
                DeploymentReport.from_json_dict(deployment)
                if deployment is not None
                else None
            ),
            image_size_bytes=payload["image_size_bytes"],
            image_transfer_bytes=payload["image_transfer_bytes"],
            messages=payload["messages"],
            bytes_sent=payload["bytes_sent"],
            internode_messages=payload["internode_messages"],
            phase_fractions=dict(payload["phase_fractions"]),
            phases=dict(payload["phases"]),
            faults_injected=payload.get("faults_injected", 0),
            requeues=payload.get("requeues", 0),
            fault_timeline_digest=payload.get("fault_timeline_digest", ""),
            sim_span_seconds=payload.get("sim_span_seconds", 0.0),
        )


def speedup_series(
    results: Sequence[ExperimentResult],
    base_nodes: Optional[int] = None,
) -> dict[int, float]:
    """Fig. 3-style speedups: ``t(base) / t(n)`` keyed by node count.

    ``base_nodes`` defaults to the smallest node count present; the ideal
    curve is then ``n / base_nodes``.
    """
    if not results:
        raise ValueError("no results")
    by_nodes = {r.n_nodes: r for r in results}
    if len(by_nodes) != len(results):
        raise ValueError("duplicate node counts in series")
    base = base_nodes if base_nodes is not None else min(by_nodes)
    if base not in by_nodes:
        raise ValueError(f"no result at base node count {base}")
    t_base = by_nodes[base].elapsed_seconds
    return {
        n: t_base / r.elapsed_seconds for n, r in sorted(by_nodes.items())
    }
