"""The Alya-like workload.

Alya itself is a proprietary production code; per the reproduction's
substitution rule this subpackage provides (a) a genuinely *executable*
miniature of the two use cases the paper runs — a 2-D incompressible
Navier–Stokes solver on an artery-like channel (CFD) and a partitioned
fluid–structure coupling with an elastic wall (FSI) — and (b) a *work
model* that turns a mesh and a partitioning into the per-step flops,
halo bytes and collective counts that drive the cluster simulation.

The executable solver keeps the workload honest: the work model's
constants (CG iteration counts, flops per cell) are measured from it, not
invented.
"""

from repro.alya.geometry import ArteryGeometry
from repro.alya.mesh import StructuredMesh
from repro.alya.partition import slab_partition, PartitionInfo
from repro.alya.navier_stokes import ChannelFlowSolver, SolverStats
from repro.alya.solid import ElasticWall
from repro.alya.fsi import FsiCoupledSolver
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.alya.app import ComputeContext

__all__ = [
    "AlyaWorkModel",
    "ArteryGeometry",
    "CaseKind",
    "ChannelFlowSolver",
    "ComputeContext",
    "ElasticWall",
    "FsiCoupledSolver",
    "PartitionInfo",
    "SolverStats",
    "StructuredMesh",
    "slab_partition",
]
