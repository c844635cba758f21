"""Halo-exchange stencil: nearest-neighbour p2p, latency-bound.

A structured-grid relaxation (7-point-stencil class): each step does a
small amount of per-cell arithmetic and then exchanges one-cell-deep
ghost layers with its grid neighbours — several times per step, one
field per exchange.  There are **no collectives at all**: every message
is a point-to-point neighbour send, the messages are small, and as the
partition shrinks the exchange cost converges to pure fabric latency.
That is the opposite corner of the communication space from Alya's
CG loop (collective-heavy, bandwidth-mixed) and exercises the link
latency / software-overhead path of the fabric model that Alya's
collectives never isolate.

Every ``checkpoint_every`` steps each endpoint also writes its block to
the shared filesystem — the IO phase of the workload interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workloads.base import (
    ComputePhase,
    HaloPhase,
    IOPhase,
    PhasedWorkload,
    compute_seconds,
)


@dataclass(frozen=True)
class StencilWorkModel:
    """Per-step cost description of one halo-exchange stencil case.

    Attributes
    ----------
    n_cells:
        Global grid points.
    flops_per_cell_step:
        Arithmetic per point per sweep (a fused multi-field 7-point
        update: ~40 flops).
    sweeps_per_step:
        Relaxation sweeps per time step — each sweep is one compute
        phase followed by one ghost exchange (more sweeps, more
        latency-bound messages).
    halo_surface_coeff / halo_fields / bytes_per_value:
        Ghost layer size: ``coeff * cells_per_part^(2/3)`` cells per
        neighbour, ``halo_fields`` values each (3-D surface-to-volume
        scaling, one-cell depth).
    memory_bytes_per_cell:
        Resident bytes per point (solution + rhs + coefficients).
    checkpoint_every / checkpoint_bytes_per_cell:
        Every that many steps each endpoint writes its block's
        checkpoint to the shared filesystem (0 = never).
    nominal_timesteps:
        Steps of the production run (simulated runs do a few and scale).
    """

    n_cells: int
    flops_per_cell_step: float = 40.0
    sweeps_per_step: int = 6
    halo_surface_coeff: float = 1.0
    halo_fields: int = 1
    bytes_per_value: float = 8.0
    memory_bytes_per_cell: float = 64.0
    checkpoint_every: int = 0
    checkpoint_bytes_per_cell: float = 16.0
    nominal_timesteps: int = 1000

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        # Written as ``not 0 < x < inf`` so that NaN fails every check.
        if not 0 < self.flops_per_cell_step < math.inf:
            raise ValueError("flops_per_cell_step must be positive and finite")
        if self.sweeps_per_step < 1:
            raise ValueError("sweeps_per_step must be >= 1")
        if not 0 < self.halo_surface_coeff < math.inf or self.halo_fields < 1:
            raise ValueError("halo geometry must be positive and finite")
        if not (0 < self.bytes_per_value < math.inf
                and 0 < self.memory_bytes_per_cell < math.inf):
            raise ValueError("byte sizes must be positive and finite")
        if self.checkpoint_every < 0 or not (
            0 <= self.checkpoint_bytes_per_cell < math.inf
        ):
            raise ValueError("checkpoint parameters must be >= 0 and finite")
        if self.nominal_timesteps < 1:
            raise ValueError("nominal_timesteps must be >= 1")

    def cells_per_part(self, n_parts: int, imbalance: float = 1.05) -> float:
        """Points of the largest subdomain (imbalance folded in)."""
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        return self.n_cells / n_parts * imbalance

    def halo_bytes(self, n_parts: int) -> float:
        """Bytes of one ghost exchange, per neighbour."""
        cells = self.halo_surface_coeff * self.cells_per_part(n_parts) ** (
            2.0 / 3.0
        )
        return cells * self.halo_fields * self.bytes_per_value

    def memory_per_node(self, n_nodes: int) -> float:
        """Resident bytes one node needs for its share of the grid."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return self.n_cells / n_nodes * self.memory_bytes_per_cell * 1.05


class HaloStencilWorkload(PhasedWorkload):
    """The stencil as a registrable phase program."""

    name = "stencil"
    workmodel_type = StencilWorkModel
    description = (
        "halo-exchange stencil: nearest-neighbour ghost exchanges only "
        "(latency-bound p2p; no collectives)"
    )
    topology = "grid"
    # Measured on the Lenox 1/2/4-node reference grid: surface-to-volume
    # halos keep the stencil the best scaler of the built-ins, but the
    # latency-bound exchanges still cost a constant per sweep.
    strong_efficiency_floor = 0.25
    weak_growth_ceiling = 4.0

    def default_workmodel(self, fig: str = "fig1") -> StencilWorkModel:
        if fig == "fig1":
            # Lenox-sized: fits 1-4 nodes of 128 GiB comfortably.
            return StencilWorkModel(
                n_cells=32_000_000, checkpoint_every=4,
                nominal_timesteps=1000,
            )
        if fig == "fig3":
            # MareNostrum4-sized: the strong-scaling shape.
            return StencilWorkModel(
                n_cells=400_000_000, checkpoint_every=8,
                nominal_timesteps=1000,
            )
        raise ValueError(f"unknown figure shape {fig!r} (fig1|fig3)")

    def phases(self, work, ctx, n_endpoints: int, step: int):
        parts = n_endpoints * (
            ctx.ranks_per_node if ctx.endpoint_is_node else 1
        )
        sweep_flops = work.flops_per_cell_step * work.cells_per_part(parts)
        sweep_seconds = compute_seconds(sweep_flops, ctx)
        # Only node-boundary surfaces cross the network in node mode,
        # so halos scale with the endpoint partition (as in Alya).
        halo = work.halo_bytes(n_endpoints)
        out = []
        for sweep in range(work.sweeps_per_step):
            out.append(ComputePhase("compute", sweep_seconds))
            out.append(HaloPhase("halo", halo, op=sweep))
        if work.checkpoint_every and (step + 1) % work.checkpoint_every == 0:
            per_endpoint = (
                work.n_cells / n_endpoints * work.checkpoint_bytes_per_cell
            )
            out.append(IOPhase("checkpoint", per_endpoint))
        return tuple(out)
