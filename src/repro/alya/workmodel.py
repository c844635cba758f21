"""Work model: what one Alya time step costs, per subdomain.

The paper's runs use three-dimensional arterial meshes with up to tens
of millions of elements.  The simulator does not solve them; it needs
only the *shape* of one time step, and this model carries it:

- flops per cell per step, split into the predictor/projection part and
  the per-CG-iteration part;
- CG iterations per step;
- halo sizes from 3-D surface-to-volume scaling,
  ``halo_cells ≈ c · (cells_per_part)^(2/3)``;
- for FSI, the solid sub-problem's size and the interface traffic between
  the two codes.

The flop and iteration constants are calibration choices, not
measurements.  ``PREDICTOR_FLOPS_PER_CELL`` (52) counts a 5-point
projection step: two upwind advections (14 flops each), two Laplacians
(6 each), 8 for the explicit update and a divergence (4).
``CG_FLOPS_PER_CELL_ITER`` (16) counts one unpreconditioned CG
iteration: a Laplacian, three axpys and two dot products.  The 25 CG
iterations per step stand for a preconditioned production solver.  No
solver run fits these numbers (DESIGN.md, decision 4); the golden
traces, study CSVs and paper checks are pinned to them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class CaseKind(enum.Enum):
    """The paper's two biological use cases."""

    CFD = "cfd"
    FSI = "fsi"


#: Per-cell flop costs of one step of the projection scheme (see the
#: module docstring for how each is counted).
PREDICTOR_FLOPS_PER_CELL = 52.0
CG_FLOPS_PER_CELL_ITER = 16.0


@dataclass(frozen=True)
class AlyaWorkModel:
    """Per-step cost description of one Alya case.

    Attributes
    ----------
    case:
        CFD or FSI.
    n_cells:
        Global mesh cells.
    flops_per_cell_step:
        Flops per cell outside the pressure solver.
    flops_per_cell_cg_iter:
        Flops per cell per CG iteration.
    cg_iters_per_step:
        Pressure-solver iterations per time step.
    halo_surface_coeff:
        ``halo_cells = coeff * cells_per_part^(2/3)`` (3-D partition).
    halo_fields_main / halo_fields_cg:
        Fields exchanged in the predictor halo / per CG iteration.
    bytes_per_value:
        8 for double precision.
    nominal_timesteps:
        Steps of the production run (simulated runs do a few steps and
        scale; see :class:`~repro.core.metrics`).
    solid_flops_per_step:
        FSI only: the solid code's flops per coupling step.
    interface_cells:
        FSI only: wet-surface cells exchanged between the codes.
    """

    case: CaseKind
    n_cells: int
    flops_per_cell_step: float = PREDICTOR_FLOPS_PER_CELL
    flops_per_cell_cg_iter: float = CG_FLOPS_PER_CELL_ITER
    cg_iters_per_step: int = 25
    halo_surface_coeff: float = 2.0
    halo_fields_main: int = 2
    halo_fields_cg: int = 1
    bytes_per_value: float = 8.0
    #: Resident bytes per mesh cell (fields, matrices, halos, mesh data —
    #: the unstructured-CFD working-set class).
    memory_bytes_per_cell: float = 200.0
    nominal_timesteps: int = 600
    solid_flops_per_step: float = 0.0
    interface_cells: int = 0

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if self.cg_iters_per_step < 1:
            raise ValueError("cg_iters_per_step must be >= 1")
        # Written as ``not 0 < x < inf`` so that NaN fails every check.
        if not (0 < self.flops_per_cell_step < math.inf
                and 0 < self.flops_per_cell_cg_iter < math.inf):
            raise ValueError("flop costs must be positive and finite")
        if not 0 < self.halo_surface_coeff < math.inf:
            raise ValueError("halo_surface_coeff must be positive and finite")
        if not (0 < self.bytes_per_value < math.inf
                and 0 < self.memory_bytes_per_cell < math.inf):
            raise ValueError("byte sizes must be positive and finite")
        if self.nominal_timesteps < 1:
            raise ValueError("nominal_timesteps must be >= 1")
        if self.case is CaseKind.FSI:
            if (not 0 < self.solid_flops_per_step < math.inf
                    or self.interface_cells < 1):
                raise ValueError(
                    "an FSI model needs solid_flops_per_step and "
                    "interface_cells"
                )
        elif self.solid_flops_per_step != 0.0 or self.interface_cells != 0:
            # The inverse check: a CFD model carrying coupling parameters
            # is a mislabelled case, not a cheaper FSI — the solid cost
            # would be silently dropped by the CFD lowering.
            raise ValueError(
                "a CFD model must not carry FSI parameters (got "
                f"solid_flops_per_step={self.solid_flops_per_step}, "
                f"interface_cells={self.interface_cells}); "
                "use case=CaseKind.FSI for a coupled run"
            )

    # -- per-partition quantities ------------------------------------------------
    def cells_per_part(self, n_parts: int, imbalance: float = 1.05) -> float:
        """Cells of the *largest* subdomain (imbalance folded in)."""
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        if imbalance < 1.0:
            raise ValueError("imbalance must be >= 1")
        return self.n_cells / n_parts * imbalance

    def halo_cells(self, n_parts: int) -> float:
        """Interface cells per neighbour for one subdomain."""
        return self.halo_surface_coeff * self.cells_per_part(n_parts) ** (2.0 / 3.0)

    def step_flops_per_part(self, n_parts: int) -> float:
        """All flops of one step for the largest subdomain."""
        per_cell = (
            self.flops_per_cell_step
            + self.cg_iters_per_step * self.flops_per_cell_cg_iter
        )
        return per_cell * self.cells_per_part(n_parts)

    def halo_bytes_main(self, n_parts: int) -> float:
        """Bytes of one predictor halo exchange, per neighbour."""
        return self.halo_cells(n_parts) * self.halo_fields_main * self.bytes_per_value

    def halo_bytes_cg(self, n_parts: int) -> float:
        """Bytes of one CG-iteration halo exchange, per neighbour."""
        return self.halo_cells(n_parts) * self.halo_fields_cg * self.bytes_per_value

    def interface_bytes(self) -> float:
        """FSI: bytes of one interface exchange (pressure or displacement)."""
        return self.interface_cells * self.bytes_per_value

    def memory_per_node(self, n_nodes: int) -> float:
        """Resident bytes one node needs for its share of the mesh."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return self.n_cells / n_nodes * self.memory_bytes_per_cell * 1.05
