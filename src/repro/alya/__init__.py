"""The Alya-like workload.

Alya itself is a proprietary production code.  The paper uses it only
as a representative CPU+MPI workload, so this subpackage models what its
figures depend on: :class:`AlyaWorkModel` turns a case (CFD or FSI) and
a mesh size into the per-step flops, halo bytes and collective counts
that drive the cluster simulation, and :class:`ComputeContext` prices
those flops on one simulated endpoint.  There is no executable solver;
the work model's constants are calibration choices, documented in
:mod:`repro.alya.workmodel`.
"""

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.alya.app import ComputeContext

__all__ = [
    "AlyaWorkModel",
    "CaseKind",
    "ComputeContext",
]
