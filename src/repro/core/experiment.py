"""Experiment specification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.containers.compat import (
    CompatibilityError,
    check_admin_for_daemon,
    check_runtime_installed,
)
from repro.containers.recipes import BuildTechnique
from repro.faults.plan import FaultPlan
from repro.hardware.cluster import ClusterSpec
from repro.hardware.topology import SwitchTopology

#: Above this many MPI ranks the runner simulates one endpoint per node
#: (hierarchical mode) instead of one per rank.
RANK_ENDPOINT_LIMIT = 256


class EndpointGranularity(enum.Enum):
    """How the communicator models the job's processes."""

    AUTO = "auto"
    RANK = "rank"
    NODE = "node"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one run needs.

    Attributes
    ----------
    name:
        Label used in reports.
    cluster:
        Target machine.
    runtime_name:
        ``"bare-metal"``, ``"docker"``, ``"singularity"`` or ``"shifter"``.
    technique:
        Image build technique (ignored for bare-metal).
    workmodel:
        The case to run: any work-model dataclass exposing ``n_cells``,
        ``nominal_timesteps`` and ``memory_per_node(n_nodes)``, accepted
        by the spec's :attr:`workload`.
    n_nodes / ranks_per_node / threads_per_rank:
        Job geometry; ranks*threads must fit the node.
    sim_steps:
        Time steps the simulator actually executes (metrics scale to the
        work model's nominal step count).
    granularity:
        Endpoint granularity; AUTO switches to node mode above
        :data:`RANK_ENDPOINT_LIMIT` ranks.

    There is no switch for the analytic collective short-circuit
    (:mod:`repro.mpi.fastpath`): it is exact, so every run may take it
    and each collective decides for itself.
    """

    name: str
    cluster: ClusterSpec
    runtime_name: str
    technique: Optional[BuildTechnique]
    #: Duck-typed work model (``n_cells``, ``nominal_timesteps``,
    #: ``memory_per_node``); its concrete type is policed by the
    #: :attr:`workload`'s registry entry.
    workmodel: object
    n_nodes: int
    ranks_per_node: int
    threads_per_rank: int = 1
    sim_steps: int = 2
    granularity: EndpointGranularity = EndpointGranularity.AUTO
    #: ``docker run --net=host`` (ignored for other runtimes).
    docker_host_network: bool = False
    #: Optional leaf-switch topology (None = flat, NIC-limited fabric).
    switch_topology: Optional[SwitchTopology] = None
    #: Optional deterministic fault-injection plan
    #: (:mod:`repro.faults`).  ``None`` — the default — runs on a
    #: perfect machine, byte-identical to a build without the fault
    #: subsystem.
    fault_plan: Optional[FaultPlan] = None
    #: Which registered application model runs
    #: (:mod:`repro.workloads`); part of the spec key, so the same
    #: geometry under two workloads can never alias one cache entry.
    workload: str = "alya"

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.ranks_per_node < 1 or self.threads_per_rank < 1:
            raise ValueError("job geometry values must be >= 1")
        if self.n_nodes > self.cluster.num_nodes:
            raise ValueError(
                f"{self.n_nodes} nodes exceed {self.cluster.name}'s "
                f"{self.cluster.num_nodes}"
            )
        cores = self.cluster.node.cores
        if self.ranks_per_node * self.threads_per_rank > cores:
            raise ValueError(
                f"{self.ranks_per_node} ranks x {self.threads_per_rank} "
                f"threads oversubscribe the node's {cores} cores"
            )
        if self.sim_steps < 1:
            raise ValueError("sim_steps must be >= 1")
        check_runtime_installed(self.runtime_name, self.cluster)
        check_admin_for_daemon(self.runtime_name, self.cluster)
        if self.runtime_name.lower() != "bare-metal" and self.technique is None:
            raise ValueError("containerised runs need a build technique")
        # Workload lookup + work-model type check.  Imported lazily:
        # repro.workloads imports the Alya app, which sits below this
        # module in the layering.
        from repro.workloads import get_workload

        get_workload(self.workload).validate_spec(self)
        # Memory guardrail: the per-node share of the mesh must fit DRAM
        # (sbatch would accept the job; the first allocation would OOM).
        needed = self.workmodel.memory_per_node(self.n_nodes)
        available = self.cluster.node.memory.capacity
        if needed > available:
            raise CompatibilityError(
                f"{self.workmodel.n_cells:,}-cell case needs "
                f"{needed / 2**30:.1f} GiB/node on {self.n_nodes} nodes, "
                f"but {self.cluster.name} nodes have "
                f"{available / 2**30:.0f} GiB"
            )

    @property
    def total_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node

    def effective_granularity(self) -> EndpointGranularity:
        """Resolve AUTO against the rank count."""
        if self.granularity is not EndpointGranularity.AUTO:
            return self.granularity
        if self.total_ranks > RANK_ENDPOINT_LIMIT:
            return EndpointGranularity.NODE
        return EndpointGranularity.RANK

    @property
    def is_bare_metal(self) -> bool:
        return self.runtime_name.lower() == "bare-metal"
