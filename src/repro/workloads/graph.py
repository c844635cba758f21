"""Phase-structured graph analytics: shrinking rounds, invariant-asserted.

Models the round-structured distributed graph algorithms (MIS /
connectivity / coarsening pipelines) whose communication character is
unlike either Alya or the stencil: each *round* is sparsify →
local-compute → integrate, the active vertex set shrinks geometrically
between rounds, and therefore so does every message — the traffic is
front-loaded, collective-heavy, and sublinear in the input.  A final
finish round gathers the converged labelling to a root and broadcasts
the verdict.

The shrink structure is not just descriptive, it is *asserted*:
:meth:`GraphWorkload.phases` raises if the per-round communication
volumes are not strictly decreasing or if the total traffic of a step
exceeds the geometric-series bound implied by the shrink factor.  A
miscalibrated model fails loudly instead of quietly simulating a
different algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workloads.base import (
    CollectivePhase,
    ComputePhase,
    OPS_PER_STEP,
    PhasedWorkload,
    compute_seconds,
)

#: Op offsets consumed per round (sparsify allgather + integrate
#: allreduce); the finish pair sits after the last round's block.
_OPS_PER_ROUND = 2


@dataclass(frozen=True)
class GraphWorkModel:
    """Per-step cost description of one round-structured graph case.

    Attributes
    ----------
    n_cells:
        Vertices of the global graph (named ``n_cells`` so the memory
        guardrail and the universe nudge knob treat every work model
        uniformly).
    avg_degree:
        Mean adjacency degree; edges = ``n_cells * avg_degree / 2``.
    flops_per_edge:
        Arithmetic per edge touch in the local-compute phase.
    sample_flops_per_edge:
        Arithmetic per edge touch while sparsifying (cheaper: a hash
        and a comparison, not the full kernel).
    sample_fraction:
        Share of the active vertices whose sketch entries the sparsify
        phase actually allgathers, in ``(0, 1]`` — sampling is what
        keeps the exchanged sketch far below the full frontier.
    shrink:
        Per-round survival fraction of the active vertex set, in
        ``(0, 1)`` — round ``r`` works on ``n_cells * shrink**r``
        vertices, which is what makes total traffic sublinear.
    rounds:
        Sparsify/local/integrate rounds per step.
    bytes_per_vertex:
        Wire bytes per active vertex in the sparsify and integrate
        exchanges (id + label + weight).
    memory_bytes_per_cell:
        Resident bytes per vertex including its adjacency share.
    nominal_timesteps:
        Passes of the production pipeline (simulated runs do a few and
        scale up).
    """

    n_cells: int
    avg_degree: float = 16.0
    flops_per_edge: float = 24.0
    sample_flops_per_edge: float = 4.0
    sample_fraction: float = 0.05
    shrink: float = 0.5
    rounds: int = 6
    bytes_per_vertex: float = 12.0
    memory_bytes_per_cell: float = 96.0
    nominal_timesteps: int = 30

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        # Written as ``not 0 < x < inf`` so that NaN fails every check.
        if not 0 < self.avg_degree < math.inf:
            raise ValueError("avg_degree must be positive and finite")
        if not (0 < self.flops_per_edge < math.inf
                and 0 < self.sample_flops_per_edge < math.inf):
            raise ValueError("per-edge flop counts must be positive and finite")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")
        max_rounds = (OPS_PER_STEP - 2) // _OPS_PER_ROUND
        if not 1 <= self.rounds <= max_rounds:
            raise ValueError(f"rounds must be in [1, {max_rounds}]")
        if not (0 < self.bytes_per_vertex < math.inf
                and 0 < self.memory_bytes_per_cell < math.inf):
            raise ValueError("byte sizes must be positive and finite")
        if self.nominal_timesteps < 1:
            raise ValueError("nominal_timesteps must be >= 1")

    def active_vertices(self, r: int) -> float:
        """Active vertex count entering round ``r`` (0-based)."""
        if r < 0:
            raise ValueError("round index must be >= 0")
        return self.n_cells * self.shrink**r

    def memory_per_node(self, n_nodes: int) -> float:
        """Resident bytes one node needs for its graph partition."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return self.n_cells / n_nodes * self.memory_bytes_per_cell * 1.05


class GraphWorkload(PhasedWorkload):
    """The round-structured graph pipeline as a registrable workload."""

    name = "graph"
    workmodel_type = GraphWorkModel
    description = (
        "round-structured graph analytics: sparsify > local-compute > "
        "integrate rounds with geometrically shrinking traffic, then a "
        "gather+bcast finish (invariants asserted)"
    )
    topology = "chain"
    # Measured on the Lenox 1/2/4-node reference grid: every round ends
    # in whole-communicator collectives whose cost grows with the
    # communicator, so strong scaling is honestly terrible — that
    # contrast with the stencil is the point of having it.
    strong_efficiency_floor = 0.01
    weak_growth_ceiling = 60.0

    def default_workmodel(self, fig: str = "fig1") -> GraphWorkModel:
        if fig == "fig1":
            # Lenox-sized: a social-network-scale component sweep.
            return GraphWorkModel(n_cells=10_000_000)
        if fig == "fig3":
            # MareNostrum4-sized: web-graph scale.
            return GraphWorkModel(n_cells=300_000_000, rounds=8)
        raise ValueError(f"unknown figure shape {fig!r} (fig1|fig3)")

    def phases(self, work, ctx, n_endpoints: int, step: int):
        parts = n_endpoints * (
            ctx.ranks_per_node if ctx.endpoint_is_node else 1
        )
        out = []
        round_volumes = []
        for r in range(work.rounds):
            active = work.active_vertices(r)
            active_edges = active * work.avg_degree / 2.0
            op0 = r * _OPS_PER_ROUND
            # Sparsify: hash-sample the active edges, then allgather
            # the sampled sketch so every rank sees the candidate set.
            sample_seconds = compute_seconds(
                work.sample_flops_per_edge * active_edges / parts, ctx
            )
            sketch_per_rank = (
                active * work.sample_fraction * work.bytes_per_vertex / parts
            )
            # Local compute: the full kernel over the surviving edges.
            local_seconds = compute_seconds(
                work.flops_per_edge * active_edges / parts, ctx
            )
            # Integrate: reduce the round's compressed label-update
            # delta everywhere (the decided vertices' sketch entries).
            update_bytes = (
                active * work.shrink * work.sample_fraction
                * work.bytes_per_vertex
            )
            out.append(ComputePhase("sparsify", sample_seconds))
            out.append(
                CollectivePhase(
                    "sketch", "allgather", sketch_per_rank, op=op0
                )
            )
            out.append(ComputePhase("local", local_seconds))
            out.append(
                CollectivePhase(
                    "integrate", "allreduce", update_bytes, op=op0 + 1
                )
            )
            round_volumes.append(sketch_per_rank * parts + update_bytes)
        # Finish: gather the surviving labelling, broadcast the verdict.
        final_active = work.active_vertices(work.rounds) * work.sample_fraction
        op_fin = work.rounds * _OPS_PER_ROUND
        out.append(
            CollectivePhase(
                "finish-gather",
                "gather",
                final_active * work.bytes_per_vertex / parts,
                op=op_fin,
            )
        )
        out.append(
            CollectivePhase(
                "finish-bcast",
                "bcast",
                final_active * work.bytes_per_vertex,
                op=op_fin + 1,
            )
        )
        self._check_invariants(work, round_volumes)
        return tuple(out)

    @staticmethod
    def _check_invariants(work, round_volumes) -> None:
        """The shrink structure, enforced.

        Raises if per-round traffic is not strictly decreasing, or if a
        step's total traffic exceeds the geometric-series bound
        ``first_round / (1 - shrink)`` — either means the model no
        longer describes a shrinking-rounds algorithm.
        """
        for r in range(1, len(round_volumes)):
            if not round_volumes[r] < round_volumes[r - 1]:
                raise ValueError(
                    f"graph workload invariant violated: round {r} moves "
                    f"{round_volumes[r]:.3g} B, not less than round "
                    f"{r - 1}'s {round_volumes[r - 1]:.3g} B"
                )
        total = sum(round_volumes)
        bound = round_volumes[0] / (1.0 - work.shrink)
        if total > bound * (1.0 + 1e-9):
            raise ValueError(
                f"graph workload invariant violated: step traffic "
                f"{total:.3g} B exceeds the geometric bound {bound:.3g} B"
            )
