"""Fork-join threading model for hybrid MPI+OpenMP ranks.

Fig. 1's x-axis trades MPI ranks against OpenMP threads at constant core
count, so the within-rank model must capture why neither extreme wins:

- **Amdahl**: a serial fraction of each time step does not thread;
- **fork-join overhead**: every parallel region costs a fixed amount per
  thread (barrier + dispatch);
- **memory-bandwidth saturation**: a memory-bound CFD kernel stops
  scaling once the threads saturate the socket's bandwidth (roofline);
- **imbalance**: loop iterations never split perfectly.

The model converts a rank's serial compute time into its threaded time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpenMPModel:
    """Threaded execution-time model for one rank's timestep work.

    Attributes
    ----------
    parallel_fraction:
        Fraction of the serial time inside parallel regions (Amdahl's f).
    fork_join_cost:
        Seconds per parallel region per thread team (dispatch + barrier).
    regions_per_step:
        Parallel regions executed per time step.
    imbalance:
        Fractional slack of the slowest thread per region (0.03 = 3%).
    bandwidth_cores:
        Threads that saturate the socket memory bandwidth; beyond this the
        memory-bound part of the work stops speeding up.
    memory_bound_fraction:
        Share of the parallel work limited by bandwidth rather than flops.
    """

    parallel_fraction: float = 0.965
    fork_join_cost: float = 8e-6
    regions_per_step: int = 40
    imbalance: float = 0.035
    bandwidth_cores: int = 10
    memory_bound_fraction: float = 0.55

    def __post_init__(self) -> None:
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")
        if self.fork_join_cost < 0:
            raise ValueError("fork_join_cost must be >= 0")
        if self.regions_per_step < 0:
            raise ValueError("regions_per_step must be >= 0")
        if self.imbalance < 0:
            raise ValueError("imbalance must be >= 0")
        if self.bandwidth_cores < 1:
            raise ValueError("bandwidth_cores must be >= 1")
        if not 0.0 <= self.memory_bound_fraction <= 1.0:
            raise ValueError("memory_bound_fraction must be in [0, 1]")

    def effective_speedup(self, threads: int) -> float:
        """Speedup of the *parallel part* at ``threads`` threads."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        flops_speedup = threads / (1.0 + self.imbalance)
        bw_speedup = min(threads, self.bandwidth_cores) / (1.0 + self.imbalance)
        # Harmonic blend of the compute-bound and memory-bound shares.
        mb = self.memory_bound_fraction
        return 1.0 / ((1.0 - mb) / flops_speedup + mb / bw_speedup)

    def threaded_time(self, serial_seconds: float, threads: int) -> float:
        """Wall time of ``serial_seconds`` of work on ``threads`` threads."""
        if serial_seconds < 0:
            raise ValueError("serial_seconds must be >= 0")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if threads == 1:
            return serial_seconds
        f = self.parallel_fraction
        par = serial_seconds * f / self.effective_speedup(threads)
        ser = serial_seconds * (1.0 - f)
        overhead = self.regions_per_step * self.fork_join_cost * threads
        return ser + par + overhead
