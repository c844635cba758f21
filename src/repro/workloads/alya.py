"""Alya as a phase program.

Per simulated time step every endpoint runs —

  1. the step's compute as one delay (predictor + CG arithmetic, threaded
     through the OpenMP model, inflated by the runtime's CPU overhead);
  2. the predictor halo exchange with its grid neighbours (optionally
     hidden behind step 1);
  3. ``cg_iters`` pressure-solver iterations, each a one-field halo
     exchange plus a 16-byte allreduce (the dot products), marked as one
     ``cg_solve`` span;
  4. for FSI: gather of the wet-interface loads to the fluid root, the
     solid code's step there, and the broadcast of displacements back,
     billed to ``coupling`` as one interval.

Endpoints can be MPI ranks (small jobs — Lenox) or whole nodes
(hierarchical mode for the 256-node runs); in node mode the intra-node
stage of each collective is folded in analytically as the allreduce's
pre-delay.  The shared :class:`~repro.workloads.base.PhasedApp` lowers
the program; every golden trace digest and study CSV pins the result.
"""

from __future__ import annotations

import math

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.core import calibration
from repro.hardware.network import SHM_LATENCY
from repro.mpi.perf import SHM_SW_OVERHEAD
from repro.workloads.base import (
    BlockPhase,
    CollectivePhase,
    ComputePhase,
    HaloPhase,
    OverlapPhase,
    PhasedWorkload,
    compute_seconds,
)

#: Op layout inside one step's window: the predictor halo, the CG halos
#: at even offsets from ``_OP_HALO_CG``, the CG allreduces from
#: ``_OP_ALLREDUCE``, then the FSI coupling.
_OP_HALO_MAIN = 0
_OP_HALO_CG = 10  # + 2 * iteration
_OP_ALLREDUCE = 700  # + iteration
_OP_FSI_GATHER = 1900
_OP_FSI_BCAST = 1901

#: Most CG iterations the op layout holds: past it the CG halos run into
#: the allreduces (or the allreduces into the coupling).
MAX_CG_ITERS = min(
    (_OP_ALLREDUCE - _OP_HALO_CG) // 2, _OP_FSI_GATHER - _OP_ALLREDUCE
)


def intra_collective_penalty(ctx) -> float:
    """Analytic intra-node stage of a collective (node mode only)."""
    if not ctx.endpoint_is_node or ctx.ranks_per_node <= 1:
        return 0.0
    rounds = math.ceil(math.log2(ctx.ranks_per_node))
    return rounds * (2 * SHM_SW_OVERHEAD + SHM_LATENCY)


class AlyaWorkload(PhasedWorkload):
    """The paper's production biological simulation (CFD / FSI).

    ``overlap_halo`` hides the predictor halo behind the step's compute
    (non-blocking exchange posted before the arithmetic, waited after):
    the classic latency-hiding optimisation, for the overlap ablation.
    The registered instance keeps the synchronous exchange the studies
    model.
    """

    name = "alya"
    workmodel_type = AlyaWorkModel
    description = (
        "Alya artery CFD/FSI: predictor halo + CG halo/allreduce "
        "iterations, optional FSI coupling (the paper's cases)"
    )
    # Measured on the Lenox 1/2/4-node reference grid: the CG loop is
    # halo/allreduce-bound at the fig-1 mesh, so efficiency collapses
    # once traffic leaves the node (the paper's Lenox runs use larger
    # per-node shares).
    strong_efficiency_floor = 0.03
    weak_growth_ceiling = 30.0
    buckets = ("compute", "halo", "collective", "coupling")

    def __init__(self, overlap_halo: bool = False) -> None:
        self.overlap_halo = overlap_halo

    def validate_spec(self, spec) -> None:
        super().validate_spec(spec)
        iters = spec.workmodel.cg_iters_per_step
        if iters > MAX_CG_ITERS:
            raise ValueError(
                f"cg_iters_per_step={iters} does not fit the Alya op "
                f"layout of one step (at most {MAX_CG_ITERS})"
            )

    def default_workmodel(self, fig: str = "fig1") -> AlyaWorkModel:
        if fig == "fig1":
            return calibration.lenox_cfd_workmodel()
        if fig == "fig3":
            return calibration.mn4_fsi_workmodel()
        raise ValueError(f"unknown figure shape {fig!r} (fig1|fig3)")

    def phases(self, work, ctx, n_endpoints: int, step: int):
        parts = n_endpoints * (
            ctx.ranks_per_node if ctx.endpoint_is_node else 1
        )
        compute = ComputePhase(
            "compute", compute_seconds(work.step_flops_per_part(parts), ctx)
        )
        # Only node-boundary surfaces cross the network in node mode,
        # so halos scale with the endpoint partition.
        predictor = HaloPhase(
            "halo", work.halo_bytes_main(n_endpoints), op=_OP_HALO_MAIN
        )
        if self.overlap_halo:
            out = [OverlapPhase(predictor, compute)]
        else:
            out = [compute, predictor]
        halo_cg = work.halo_bytes_cg(n_endpoints)
        pen = intra_collective_penalty(ctx)
        cg = []
        for it in range(work.cg_iters_per_step):
            cg.append(HaloPhase("halo", halo_cg, op=_OP_HALO_CG + 2 * it))
            cg.append(
                CollectivePhase(
                    "allreduce", "allreduce", 16.0,
                    op=_OP_ALLREDUCE + it, pre_delay=pen,
                )
            )
        out.append(BlockPhase("cg_solve", cg))
        if work.case is CaseKind.FSI:
            iface = work.interface_bytes()
            # The solid is itself distributed over the allocation, so its
            # step strong-scales like the fluid's (no threading model);
            # the residual serialisation is the root-level sequence.
            solid = (
                work.solid_flops_per_step / ctx.sustained_core_flops
                / parts * ctx.cpu_overhead
            )
            out.append(
                BlockPhase(
                    "coupling",
                    (
                        CollectivePhase(
                            "gather", "gather", max(iface / n_endpoints, 1.0),
                            op=_OP_FSI_GATHER,
                        ),
                        ComputePhase("solid", solid, root=0),
                        CollectivePhase(
                            "bcast", "bcast", iface, op=_OP_FSI_BCAST
                        ),
                    ),
                    bucket="coupling",
                )
            )
        return tuple(out)
