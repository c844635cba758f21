"""OpenMP within-rank threading model."""

from repro.openmp.model import OpenMPModel

__all__ = ["OpenMPModel"]
