"""Compute-node model."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.cpu import Architecture, CpuSpec
from repro.hardware.memory import MemorySpec


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: sockets, memory, and local storage.

    Attributes
    ----------
    cpu:
        The socket model (all sockets identical).
    sockets:
        Number of sockets.
    memory:
        DRAM configuration; ``memory.copy_bandwidth`` is the *aggregate*
        rate available to intra-node shared-memory MPI traffic.
    local_disk_bandwidth:
        Sequential local-disk bandwidth, bytes/s; governs container image
        extraction and loop-mount read costs during deployment.
    """

    cpu: CpuSpec
    sockets: int
    memory: MemorySpec
    local_disk_bandwidth: float = 0.5e9

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError("sockets must be >= 1")
        if not 0 < self.local_disk_bandwidth < math.inf:
            raise ValueError(
                "local_disk_bandwidth must be positive and finite"
            )

    @property
    def cores(self) -> int:
        """Total physical cores in the node."""
        return self.cpu.cores * self.sockets

    @property
    def arch(self) -> Architecture:
        """Node ISA (that of its CPUs)."""
        return self.cpu.arch

    @property
    def peak_flops(self) -> float:
        """Peak DP flop/s of the node."""
        return self.cpu.peak_flops * self.sockets

    def core_flops(self) -> float:
        """Peak DP flop/s of a single core."""
        return self.cpu.peak_flops_per_core
