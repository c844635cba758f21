"""CPU models for the three ISAs evaluated in the paper.

The portability study (§B.2) spans Intel Skylake (x86-64), IBM Power9
(ppc64le) and Cavium ThunderX (aarch64); the solutions study runs on Intel
Haswell.  A :class:`CpuSpec` captures what the performance model needs:
core count, clock, peak DP flops per cycle per core, and sustained memory
bandwidth per socket.  Sustained efficiency for a memory-bound CFD code is
applied by the work model, not here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Architecture(enum.Enum):
    """Instruction-set architecture of a CPU (container-image dimension)."""

    X86_64 = "x86_64"
    PPC64LE = "ppc64le"
    AARCH64 = "aarch64"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CpuSpec:
    """A CPU socket model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"Intel Xeon Platinum 8160"``.
    arch:
        ISA; container images only run on matching ISAs.
    cores:
        Physical cores per socket.
    frequency_hz:
        Nominal clock frequency.
    flops_per_cycle:
        Peak double-precision flops per cycle per core (vector width ×
        FMA × pipes).
    mem_bandwidth:
        Sustained socket memory bandwidth, bytes/s.
    smt:
        Hardware threads per core (not used for peak, informational).
    """

    name: str
    arch: Architecture
    cores: int
    frequency_hz: float
    flops_per_cycle: float
    mem_bandwidth: float
    smt: int = 1

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")
        # Written as ``not 0 < x < inf`` so that NaN fails every check.
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError("frequency_hz must be positive and finite")
        if not 0 < self.flops_per_cycle < math.inf:
            raise ValueError("flops_per_cycle must be positive and finite")
        if not 0 < self.mem_bandwidth < math.inf:
            raise ValueError("mem_bandwidth must be positive and finite")
        if self.smt < 1:
            raise ValueError("smt must be >= 1")

    @property
    def peak_flops_per_core(self) -> float:
        """Peak DP flop/s of one core."""
        return self.frequency_hz * self.flops_per_cycle

    @property
    def peak_flops(self) -> float:
        """Peak DP flop/s of the whole socket."""
        return self.peak_flops_per_core * self.cores


# --------------------------------------------------------------------------
# The four CPU models appearing in the paper's experimental environment.
# Peak flops/cycle: Haswell AVX2+2×FMA = 16; Skylake AVX-512+2×FMA = 32;
# Power9 2×(2-wide VSX FMA) = 8; ThunderX CN8890 has a scalar FPU (no FMA
# pipe pairing) = 2.
# --------------------------------------------------------------------------

XEON_E5_2697V3 = CpuSpec(
    name="Intel Xeon E5-2697 v3",
    arch=Architecture.X86_64,
    cores=14,
    frequency_hz=2.6e9,
    flops_per_cycle=16,
    mem_bandwidth=68e9 / 2,  # per socket share of 4-ch DDR4-2133
    smt=2,
)

XEON_PLATINUM_8160 = CpuSpec(
    name="Intel Xeon Platinum 8160",
    arch=Architecture.X86_64,
    cores=24,
    frequency_hz=2.1e9,
    flops_per_cycle=32,
    mem_bandwidth=119e9 / 2,  # 6-ch DDR4-2666 per socket share
    smt=2,
)

POWER9_8335_GTG = CpuSpec(
    name="IBM Power9 8335-GTG",
    arch=Architecture.PPC64LE,
    cores=20,
    frequency_hz=3.0e9,
    flops_per_cycle=8,
    mem_bandwidth=120e9,
    smt=4,
)

THUNDERX_CN8890 = CpuSpec(
    name="Cavium ThunderX CN8890",
    arch=Architecture.AARCH64,
    cores=48,
    frequency_hz=2.0e9,
    flops_per_cycle=2,
    mem_bandwidth=40e9,
    smt=1,
)
