"""Alya's compute context.

:class:`ComputeContext` is how fast one simulated endpoint computes; the
runner builds one per job and every workload's phase program prices its
arithmetic through it.  Alya itself (CFD and folded FSI) is a phase
program, :class:`repro.workloads.alya.AlyaWorkload`, lowered by the
shared :class:`~repro.workloads.base.PhasedApp`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.openmp.model import OpenMPModel


@dataclass(frozen=True)
class ComputeContext:
    """How fast an endpoint computes.

    Attributes
    ----------
    core_peak_flops:
        Peak DP flop/s of one core.
    sustained_fraction:
        Fraction of peak a memory-bound CFD assembly sustains (~5%).
    omp:
        The within-rank threading model.
    threads_per_rank:
        OpenMP threads per MPI rank.
    cpu_overhead:
        Runtime multiplier (1.005 for Docker, 1.0 otherwise).
    endpoint_is_node:
        True when one simulated endpoint stands for a whole node.
    ranks_per_node:
        True MPI ranks per node (used to fold intra-node costs in node
        mode; ignored in rank mode).
    """

    core_peak_flops: float
    sustained_fraction: float = 0.05
    omp: OpenMPModel = OpenMPModel()
    threads_per_rank: int = 1
    cpu_overhead: float = 1.0
    endpoint_is_node: bool = False
    ranks_per_node: int = 1

    def __post_init__(self) -> None:
        if self.core_peak_flops <= 0:
            raise ValueError("core_peak_flops must be positive")
        if not 0 < self.sustained_fraction <= 1:
            raise ValueError("sustained_fraction must be in (0, 1]")
        if self.threads_per_rank < 1 or self.ranks_per_node < 1:
            raise ValueError("threads and ranks must be >= 1")
        if self.cpu_overhead < 1.0:
            raise ValueError("cpu_overhead must be >= 1")

    @property
    def sustained_core_flops(self) -> float:
        return self.core_peak_flops * self.sustained_fraction
