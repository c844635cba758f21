"""Node memory model.

Containers add no measurable memory-access cost, but the memory subsystem
matters twice in the reproduction: (a) shared-memory MPI transfers inside a
node are bounded by copy bandwidth, and (b) cgroup memory limits (Docker)
can cap the resident set.  :class:`MemorySpec` carries the few numbers the
simulator needs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemorySpec:
    """Main-memory configuration of a node.

    Attributes
    ----------
    capacity:
        Installed DRAM in bytes.
    copy_bandwidth:
        Sustained single-copy (memcpy) bandwidth in bytes/s, the rate at
        which shared-memory MPI messages move.
    numa_domains:
        Number of NUMA domains (sockets, usually); cross-domain traffic
        pays :attr:`numa_penalty`.
    numa_penalty:
        Multiplier (>= 1) on copy time when crossing NUMA domains.
    """

    capacity: float
    copy_bandwidth: float
    numa_domains: int = 2
    numa_penalty: float = 1.4

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.copy_bandwidth <= 0:
            raise ValueError("copy_bandwidth must be positive")
        if self.numa_domains < 1:
            raise ValueError("numa_domains must be >= 1")
        if self.numa_penalty < 1.0:
            raise ValueError("numa_penalty must be >= 1")


GIB = float(2**30)


def gib(n: float) -> float:
    """Convenience: ``n`` gibibytes in bytes."""
    return n * GIB
