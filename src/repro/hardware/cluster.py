"""Cluster specification and its simulation-time instantiation.

:class:`ClusterSpec` is pure data (what a site publishes about its
machine); :class:`Cluster` wires the spec into a DES
:class:`~repro.des.engine.Environment`, creating per-node NIC links, the
intra-node shared-memory link, local disks, and the shared parallel
filesystem.  MPI and the container runtimes then operate on the
:class:`Cluster` object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.des.engine import Environment
from repro.des.events import Event
from repro.des.links import FairShareLink
from repro.hardware.network import FabricSpec, NetworkPath, PathParams
from repro.hardware.node import NodeSpec
from repro.hardware.topology import SwitchTopology


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster.

    Attributes
    ----------
    name / site:
        Identification, as in the paper's §A.
    num_nodes:
        Nodes available.
    node:
        Per-node hardware.
    fabric:
        Inter-node interconnect.
    shared_fs_bandwidth:
        Aggregate parallel-filesystem bandwidth (bytes/s) shared by all
        nodes; image pulls and I/O contend here.
    admin_rights:
        Whether the experimenters have root — Docker's daemon can only be
        deployed where this is true (Lenox, in the paper).
    installed_runtimes:
        Mapping runtime name → version string, as published.
    """

    name: str
    site: str
    num_nodes: int
    node: NodeSpec
    fabric: FabricSpec
    shared_fs_bandwidth: float = 10e9
    admin_rights: bool = False
    installed_runtimes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.shared_fs_bandwidth <= 0:
            raise ValueError("shared_fs_bandwidth must be positive")

    def total_cores(self) -> int:
        """All physical cores in the machine."""
        return self.num_nodes * self.node.cores

    def supports_runtime(self, runtime_name: str) -> bool:
        """Whether ``runtime_name`` (case-insensitive) is installed."""
        return runtime_name.lower() in {k.lower() for k in self.installed_runtimes}


class BridgeFifo:
    """Docker's serialized softirq pipeline on one node: one slot, FIFO.

    A holder is represented by its *grant*, an event armed with the
    callbacks to run once the slot is held.  :meth:`acquire` appends the
    grant to the now-ring at once when the slot is free, and otherwise
    queues it; :meth:`release` hands the slot to the oldest queued grant
    by appending that grant to the now-ring.
    """

    __slots__ = ("_ring", "_waiting", "busy")

    def __init__(self, env: Environment) -> None:
        self._ring = env._ring
        self._waiting: deque[Event] = deque()
        #: Whether a holder has the slot.
        self.busy = False

    def acquire(self, grant: Event) -> None:
        """Ask for the slot; ``grant`` is dispatched once it is held."""
        if self.busy:
            self._waiting.append(grant)
        else:
            self.busy = True
            self._ring.append(grant)

    def release(self) -> None:
        """Give the slot up, to the oldest waiting grant if any."""
        if not self.busy:
            raise RuntimeError("release() of a bridge FIFO nobody holds")
        if self._waiting:
            self._ring.append(self._waiting.popleft())
        else:
            self.busy = False


class NodeSim:
    """A node instantiated inside a simulation environment."""

    def __init__(self, env: Environment, spec: NodeSpec, node_id: int) -> None:
        self.env = env
        self.spec = spec
        self.node_id = node_id
        # Full-duplex NIC: independent transmit and receive pipes.
        self.nic_tx: Optional[FairShareLink] = None
        self.nic_rx: Optional[FairShareLink] = None
        self.shm = FairShareLink(
            env, bandwidth=spec.memory.copy_bandwidth, name=f"shm[{node_id}]"
        )
        self.disk = FairShareLink(
            env, bandwidth=spec.local_disk_bandwidth, name=f"disk[{node_id}]"
        )
        #: Serialized softirq pipeline for bridge+NAT traffic (Docker only;
        #: created by :meth:`Cluster.wire_network` when the path needs it).
        self.bridge: Optional[BridgeFifo] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NodeSim {self.node_id} cores={self.spec.cores}>"


class Cluster:
    """A :class:`ClusterSpec` bound to a DES environment.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Cluster description.
    num_nodes:
        How many nodes to instantiate (defaults to the job's needs rather
        than the whole machine, to keep simulations light).
    """

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        num_nodes: Optional[int] = None,
    ) -> None:
        if num_nodes is None:
            num_nodes = spec.num_nodes
        if not 1 <= num_nodes <= spec.num_nodes:
            raise ValueError(
                f"num_nodes={num_nodes} outside [1, {spec.num_nodes}] "
                f"for {spec.name}"
            )
        self.env = env
        self.spec = spec
        self.nodes = [NodeSim(env, spec.node, i) for i in range(num_nodes)]
        self.shared_fs = FairShareLink(
            env, bandwidth=spec.shared_fs_bandwidth, name=f"{spec.name}-pfs"
        )
        self._nic_params: Optional[PathParams] = None
        self._topology: Optional[SwitchTopology] = None
        self._uplinks_up: list[FairShareLink] = []
        self._uplinks_down: list[FairShareLink] = []
        #: ``(src, dst)`` -> the links of a src -> dst flow, filled
        #: lazily by :meth:`route`.
        self._routes: dict[tuple[int, int], tuple[FairShareLink, ...]] = {}

    # -- network wiring -------------------------------------------------------
    def wire_network(
        self,
        path: NetworkPath,
        topology: Optional[SwitchTopology] = None,
    ) -> PathParams:
        """Create per-node NIC links for traffic taking ``path``.

        With a :class:`SwitchTopology`, traffic between different leaf
        switches additionally traverses both leaves' (possibly
        oversubscribed) uplinks.  Returns the effective path parameters
        (the MPI cost model pays the latency; the links model only
        bandwidth sharing).
        """
        params = self.spec.fabric.path_params(path)
        self._nic_params = params
        self._topology = topology
        self._uplinks_up = []
        self._uplinks_down = []
        if topology is not None:
            for s in range(topology.n_switches(len(self.nodes))):
                bw = topology.uplink_bandwidth(params.bandwidth)
                self._uplinks_up.append(
                    FairShareLink(self.env, bandwidth=bw, name=f"uplink-up[{s}]")
                )
                self._uplinks_down.append(
                    FairShareLink(self.env, bandwidth=bw, name=f"uplink-dn[{s}]")
                )
        for node in self.nodes:
            node.nic_tx = FairShareLink(
                self.env,
                bandwidth=params.bandwidth,
                per_byte_overhead=params.per_byte_overhead,
                name=f"nic-tx[{node.node_id}]",
            )
            node.nic_rx = FairShareLink(
                self.env,
                bandwidth=params.bandwidth,
                per_byte_overhead=params.per_byte_overhead,
                name=f"nic-rx[{node.node_id}]",
            )
            node.bridge = (
                BridgeFifo(self.env)
                if path is NetworkPath.BRIDGE_NAT
                else None
            )
        # Routes bypass FairShareLink.transfer_cb's latency gate, so every
        # link a route can hold must be latency-free.
        routed = [ln for n in self.nodes for ln in (n.shm, n.nic_tx, n.nic_rx)]
        assert all(
            ln.latency == 0
            for ln in routed + self._uplinks_up + self._uplinks_down
        )
        # Reset in place: communicators hold the table itself.
        self._routes.clear()
        return params

    @property
    def nic_params(self) -> PathParams:
        """Parameters set by the last :meth:`wire_network` call."""
        if self._nic_params is None:
            raise RuntimeError("wire_network() has not been called")
        return self._nic_params

    # -- transfers --------------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple[FairShareLink, ...]:
        """The links a flow from node ``src`` to node ``dst`` occupies.

        Intra-node: the node's memory-copy link.  Inter-node: the
        source's transmit pipe and the destination's receive pipe, then
        both leaves' uplinks when the flow crosses leaves.  That is the
        admission order.  Cached until the next :meth:`wire_network`.
        """
        links = self._routes.get((src, dst))
        if links is not None:
            return links
        if src == dst:
            links = (self.nodes[src].shm,)
        else:
            tx = self.nodes[src].nic_tx
            rx = self.nodes[dst].nic_rx
            if tx is None or rx is None:
                raise RuntimeError(
                    "wire_network() must be called before transfer()"
                )
            topo = self._topology
            if topo is not None and not topo.same_switch(src, dst):
                links = (
                    tx,
                    rx,
                    self._uplinks_up[topo.switch_of(src)],
                    self._uplinks_down[topo.switch_of(dst)],
                )
            else:
                links = (tx, rx)
        self._routes[src, dst] = links
        return links

    def transfer(self, src: int, dst: int, nbytes: float) -> Event:
        """Move ``nbytes`` between nodes (bandwidth part only).

        Inter-node flows occupy the source's transmit pipe and the
        destination's receive pipe concurrently and complete when both are
        drained; intra-node flows share the node's memory-copy link.
        Latency is *not* included — the MPI layer pays it per message.
        """
        done = Event(self.env)
        links = self.route(src, dst)
        left = len(links)

        def segment_done() -> None:
            nonlocal left
            left -= 1
            if left == 0:
                done.succeed()

        for link in links:
            link.transfer_cb(nbytes, segment_done)
        return done

    def node(self, node_id: int) -> NodeSim:
        """The :class:`NodeSim` with the given id."""
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)
