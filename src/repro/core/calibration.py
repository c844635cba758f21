"""Calibration: per-cluster execution parameters and canonical cases.

Absolute numbers in the paper's figures depend on the authors' meshes and
build flags, which are not published; the reproduction therefore targets
the *shapes* (who wins, by what factor, where curves bend).  This module
pins down the free constants in one place:

- the sustained fraction of peak a memory-bound CFD assembly achieves on
  each CPU (higher where the bytes/flop ratio is higher);
- the OpenMP model parameters per node type;
- the canonical work models for the three measured figures, with mesh
  sizes chosen so per-core workloads sit in the regime the paper reports.
"""

from __future__ import annotations

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.hardware.cluster import ClusterSpec
from repro.openmp.model import OpenMPModel

#: Sustained fraction of DP peak for the Alya-like assembly+CG mix.
#: Roughly proportional to (memory bandwidth per flop): wide-vector
#: Skylake sustains the smallest share of its huge peak.
SUSTAINED_FRACTION: dict[str, float] = {
    "Intel Xeon E5-2697 v3": 0.060,
    "Intel Xeon Platinum 8160": 0.045,
    "IBM Power9 8335-GTG": 0.085,
    "Cavium ThunderX CN8890": 0.200,
}

#: Cores that saturate one socket's memory bandwidth (OpenMP roofline).
BANDWIDTH_CORES: dict[str, int] = {
    "Intel Xeon E5-2697 v3": 9,
    "Intel Xeon Platinum 8160": 12,
    "IBM Power9 8335-GTG": 14,
    "Cavium ThunderX CN8890": 20,
}


def sustained_fraction(cluster: ClusterSpec) -> float:
    """Sustained fraction of peak on this cluster's CPU."""
    return SUSTAINED_FRACTION[cluster.node.cpu.name]


def openmp_model(cluster: ClusterSpec) -> OpenMPModel:
    """Threading model parameterised for this cluster's socket."""
    return OpenMPModel(
        bandwidth_cores=BANDWIDTH_CORES[cluster.node.cpu.name],
    )


# ---------------------------------------------------------------------------
# Canonical cases.  Mesh sizes follow the paper's regime: the Lenox CFD
# case fits 4 nodes; the CTE-POWER portability case fills 2-16 Power9
# nodes; the MareNostrum4 FSI case strong-scales to 12,288 cores.
# ---------------------------------------------------------------------------


def lenox_cfd_workmodel() -> AlyaWorkModel:
    """The artery CFD case as sized for the 4-node Lenox runs (Fig. 1)."""
    return AlyaWorkModel(
        case=CaseKind.CFD,
        n_cells=6_500_000,
        cg_iters_per_step=25,
        nominal_timesteps=600,
    )


def ctepower_cfd_workmodel() -> AlyaWorkModel:
    """The artery CFD case on CTE-POWER, 2-16 nodes (Fig. 2)."""
    return AlyaWorkModel(
        case=CaseKind.CFD,
        n_cells=24_000_000,
        cg_iters_per_step=25,
        nominal_timesteps=1200,
    )


def mn4_fsi_workmodel() -> AlyaWorkModel:
    """The artery FSI case on MareNostrum4, 4-256 nodes (Fig. 3)."""
    return AlyaWorkModel(
        case=CaseKind.FSI,
        n_cells=100_000_000,
        cg_iters_per_step=25,
        nominal_timesteps=600,
        solid_flops_per_step=2.0e8,
        interface_cells=60_000,
    )


def portability_cfd_workmodel() -> AlyaWorkModel:
    """A fixed-size case small enough for the 4-node Arm/Lenox machines,
    used by the three-architecture comparison (§B.2)."""
    return AlyaWorkModel(
        case=CaseKind.CFD,
        n_cells=3_000_000,
        cg_iters_per_step=25,
        nominal_timesteps=200,
    )
