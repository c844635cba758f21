"""Pluggable workload registry: application models beyond Alya.

Importing this package registers the built-in workloads::

    alya     the paper's production CFD/FSI simulation
    stencil  halo-exchange stencil (latency-bound nearest-neighbour p2p)
    graph    round-structured graph analytics (shrinking collectives)

Third-party workloads subclass :class:`~repro.workloads.base.Workload`
(usually :class:`~repro.workloads.base.PhasedWorkload`) and call
:func:`register` — see ``docs/workloads.md``.
"""

from repro.workloads.alya import AlyaWorkload
from repro.workloads.base import (
    BlockPhase,
    CollectivePhase,
    ComputePhase,
    HaloPhase,
    IOPhase,
    OPS_PER_STEP,
    OverlapPhase,
    PhaseBreakdown,
    PhasedApp,
    PhasedWorkload,
    Workload,
    compute_seconds,
    grid_neighbors,
)
from repro.workloads.graph import GraphWorkload, GraphWorkModel
from repro.workloads.registry import (
    get_workload,
    list_workloads,
    register,
)
from repro.workloads.stencil import HaloStencilWorkload, StencilWorkModel

register(AlyaWorkload())
register(HaloStencilWorkload())
register(GraphWorkload())

__all__ = [
    "AlyaWorkload",
    "BlockPhase",
    "CollectivePhase",
    "ComputePhase",
    "GraphWorkModel",
    "GraphWorkload",
    "HaloPhase",
    "HaloStencilWorkload",
    "IOPhase",
    "OPS_PER_STEP",
    "OverlapPhase",
    "PhaseBreakdown",
    "PhasedApp",
    "PhasedWorkload",
    "StencilWorkModel",
    "Workload",
    "compute_seconds",
    "get_workload",
    "grid_neighbors",
    "list_workloads",
    "register",
]
