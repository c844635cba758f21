"""Alya's compute context and the two-code FSI program.

:class:`ComputeContext` is how fast one simulated endpoint computes; the
runner builds one per job and every workload's phase program prices its
arithmetic through it.  Single-code Alya (CFD and folded FSI) is a phase
program, :class:`repro.workloads.alya.AlyaWorkload`, lowered by the
shared :class:`~repro.workloads.base.PhasedApp`.  :class:`TwoCodeFsiAlya`
keeps its own hand-written rank body: its fluid and solid codes run over
sub-communicators, which the phase IR does not model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.des.events import JoinAll
from repro.mpi import collectives
from repro.mpi.comm import SimComm
from repro.mpi.datatypes import collective_tag
from repro.openmp.model import OpenMPModel

#: Op-id stride reserved for one simulated time step.
_OPS_PER_STEP = 2048
_OP_ALLREDUCE = 700  # + iteration
_OP_FSI_GATHER = 1900
_OP_FSI_BCAST = 1901


@dataclass(frozen=True)
class ComputeContext:
    """How fast an endpoint computes.

    Attributes
    ----------
    core_peak_flops:
        Peak DP flop/s of one core.
    sustained_fraction:
        Fraction of peak a memory-bound CFD assembly sustains (~5%).
    omp:
        The within-rank threading model.
    threads_per_rank:
        OpenMP threads per MPI rank.
    cpu_overhead:
        Runtime multiplier (1.005 for Docker, 1.0 otherwise).
    endpoint_is_node:
        True when one simulated endpoint stands for a whole node.
    ranks_per_node:
        True MPI ranks per node (used to fold intra-node costs in node
        mode; ignored in rank mode).
    """

    core_peak_flops: float
    sustained_fraction: float = 0.05
    omp: OpenMPModel = OpenMPModel()
    threads_per_rank: int = 1
    cpu_overhead: float = 1.0
    endpoint_is_node: bool = False
    ranks_per_node: int = 1

    def __post_init__(self) -> None:
        if self.core_peak_flops <= 0:
            raise ValueError("core_peak_flops must be positive")
        if not 0 < self.sustained_fraction <= 1:
            raise ValueError("sustained_fraction must be in (0, 1]")
        if self.threads_per_rank < 1 or self.ranks_per_node < 1:
            raise ValueError("threads and ranks must be >= 1")
        if self.cpu_overhead < 1.0:
            raise ValueError("cpu_overhead must be >= 1")

    @property
    def sustained_core_flops(self) -> float:
        return self.core_peak_flops * self.sustained_fraction


class TwoCodeFsiAlya:
    """The FSI case as the paper describes it: *two* code instances.

    The allocation's endpoints split into a fluid group and a (much
    smaller) solid group running concurrently as separate SPMD programs
    over sub-communicators; each coupling step exchanges interface loads
    and displacements between the two roots.  Compared with the folded
    FSI model of :class:`~repro.workloads.alya.AlyaWorkload`, the
    coupling here is a true inter-code rendezvous: a slow solid stalls
    the fluid and vice versa.

    Parameters
    ----------
    work / ctx / sim_steps:
        The FSI work model (``work.case`` must be FSI), the compute
        context and the simulated step count.
    solid_fraction:
        Share of endpoints given to the solid code (≥ 1 endpoint).
    """

    def __init__(
        self,
        work: AlyaWorkModel,
        ctx: ComputeContext,
        sim_steps: int = 3,
        solid_fraction: float = 0.1,
    ) -> None:
        if work.case is not CaseKind.FSI:
            raise ValueError("TwoCodeFsiAlya requires an FSI work model")
        if sim_steps < 1:
            raise ValueError("sim_steps must be >= 1")
        if not 0.0 < solid_fraction < 0.5:
            raise ValueError("solid_fraction must be in (0, 0.5)")
        self.work = work
        self.ctx = ctx
        self.sim_steps = sim_steps
        self.solid_fraction = solid_fraction

    def split(self, n_endpoints: int) -> tuple[list[int], list[int]]:
        """(fluid members, solid members) for an ``n_endpoints`` job."""
        if n_endpoints < 2:
            raise ValueError("a two-code job needs at least 2 endpoints")
        n_solid = max(1, int(round(n_endpoints * self.solid_fraction)))
        n_fluid = n_endpoints - n_solid
        return list(range(n_fluid)), list(range(n_fluid, n_endpoints))

    # -- per-code cost helpers -----------------------------------------------
    def _fluid_compute(self, n_fluid: int) -> float:
        parts = n_fluid * (
            self.ctx.ranks_per_node if self.ctx.endpoint_is_node else 1
        )
        serial = self.work.step_flops_per_part(parts) / self.ctx.sustained_core_flops
        return (
            self.ctx.omp.threaded_time(serial, self.ctx.threads_per_rank)
            * self.ctx.cpu_overhead
        )

    def _solid_compute(self, n_solid: int) -> float:
        parts = n_solid * (
            self.ctx.ranks_per_node if self.ctx.endpoint_is_node else 1
        )
        serial = self.work.solid_flops_per_step / self.ctx.sustained_core_flops
        return serial / parts * self.ctx.cpu_overhead

    # -- the SPMD program -----------------------------------------------------
    def rank_body(self, comm: SimComm, ep: int):
        env = comm.env
        work = self.work
        fluid_members, solid_members = self.split(comm.size)
        fluid = comm.group(fluid_members)
        solid = comm.group(solid_members)
        iface = work.interface_bytes()
        fluid_root = fluid_members[0]
        solid_root = solid_members[0]
        is_fluid = ep in set(fluid_members)

        if is_fluid:
            g_rank = fluid.group_rank_of(ep)
            comp = self._fluid_compute(len(fluid_members))
            halo_cg = work.halo_bytes_cg(len(fluid_members))
            halo_main = work.halo_bytes_main(len(fluid_members))
            for step in range(self.sim_steps):
                base = step * _OPS_PER_STEP
                yield env.timeout(comp)
                # Chain halo within the fluid group (slab partition).
                events = []
                for nb in (g_rank - 1, g_rank + 1):
                    if 0 <= nb < fluid.size:
                        events.append(
                            fluid.isend(
                                g_rank, nb,
                                collective_tag(base, 2 + (nb > g_rank)),
                                halo_main,
                            )
                        )
                        events.append(
                            fluid.recv(
                                g_rank, nb,
                                collective_tag(base, 2 + (nb < g_rank)),
                            )
                        )
                if events:
                    yield JoinAll(env, events)
                for it in range(work.cg_iters_per_step):
                    yield from collectives.allreduce(
                        fluid, g_rank, op=base + _OP_ALLREDUCE + it, nbytes=16.0
                    )
                # Coupling: loads to the solid root, displacements back.
                yield from collectives.gather(
                    fluid, g_rank, op=base + _OP_FSI_GATHER,
                    nbytes_per_rank=max(iface / fluid.size, 1.0), root=0,
                )
                if ep == fluid_root:
                    yield comm.isend(
                        fluid_root, solid_root,
                        collective_tag(base, 800), iface,
                    )
                    yield comm.recv(
                        fluid_root, solid_root, collective_tag(base, 801)
                    )
                yield from collectives.bcast(
                    fluid, g_rank, op=base + _OP_FSI_BCAST, nbytes=iface,
                    root=0,
                )
        else:
            g_rank = solid.group_rank_of(ep)
            comp = self._solid_compute(len(solid_members))
            for step in range(self.sim_steps):
                base = step * _OPS_PER_STEP
                if ep == solid_root:
                    yield comm.recv(
                        solid_root, fluid_root, collective_tag(base, 800)
                    )
                yield from collectives.bcast(
                    solid, g_rank, op=base + 950, nbytes=iface, root=0
                )
                yield env.timeout(comp)
                yield from collectives.allreduce(
                    solid, g_rank, op=base + 960, nbytes=16.0
                )
                yield from collectives.gather(
                    solid, g_rank, op=base + 970,
                    nbytes_per_rank=max(iface / solid.size, 1.0), root=0,
                )
                if ep == solid_root:
                    yield comm.isend(
                        solid_root, fluid_root,
                        collective_tag(base, 801), iface,
                    )
        return None
