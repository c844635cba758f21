"""Cluster specification and its simulation-time instantiation.

:class:`ClusterSpec` is pure data (what a site publishes about its
machine); :class:`Cluster` wires the spec into a DES
:class:`~repro.des.engine.Environment`, creating per-node NIC links, the
intra-node shared-memory link, local disks, and the shared parallel
filesystem.  MPI and the container runtimes then operate on the
:class:`Cluster` object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.des.engine import Environment
from repro.des.events import Event
from repro.des.links import FairShareLink
from repro.des.resources import Resource
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
        self.bridge: Optional[Resource] = None

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
                Resource(self.env, capacity=1)
                if path is NetworkPath.BRIDGE_NAT
                else None
            )
        return params

    @property
    def nic_params(self) -> PathParams:
        """Parameters set by the last :meth:`wire_network` call."""
        if self._nic_params is None:
            raise RuntimeError("wire_network() has not been called")
        return self._nic_params

    # -- transfers --------------------------------------------------------------
    def transfer_segments(self, src: int, dst: int, nbytes: float) -> tuple[Event, ...]:
        """The per-segment completion events of :meth:`transfer`.

        Exposed separately (without the joining :class:`AllOf`) so the MPI
        delivery chain can count the segments down with a plain callback
        instead of allocating a condition event per message.  Segment
        order: tx, rx, then the two switch uplinks when the flow crosses
        leaves.
        """
        if src == dst:
            return (self.nodes[src].shm.transfer(nbytes),)
        tx = self.nodes[src].nic_tx
        rx = self.nodes[dst].nic_rx
        if tx is None or rx is None:
            raise RuntimeError("wire_network() must be called before transfer()")
        topo = self._topology
        if topo is not None and not topo.same_switch(src, dst):
            return (
                tx.transfer(nbytes),
                rx.transfer(nbytes),
                self._uplinks_up[topo.switch_of(src)].transfer(nbytes),
                self._uplinks_down[topo.switch_of(dst)].transfer(nbytes),
            )
        return (tx.transfer(nbytes), rx.transfer(nbytes))

    def transfer_cb(self, src: int, dst: int, nbytes: float, notify) -> int:
        """Event-free :meth:`transfer_segments`: each segment calls
        ``notify()`` directly on completion (see
        :meth:`FairShareLink.transfer_cb`); returns the segment count.

        Segments with zero wire bytes complete *during this call*, so
        callers must prime their countdown before invoking it.
        """
        if src == dst:
            self.nodes[src].shm.transfer_cb(nbytes, notify)
            return 1
        tx = self.nodes[src].nic_tx
        rx = self.nodes[dst].nic_rx
        if tx is None or rx is None:
            raise RuntimeError("wire_network() must be called before transfer()")
        topo = self._topology
        if topo is not None and not topo.same_switch(src, dst):
            tx.transfer_cb(nbytes, notify)
            rx.transfer_cb(nbytes, notify)
            self._uplinks_up[topo.switch_of(src)].transfer_cb(nbytes, notify)
            self._uplinks_down[topo.switch_of(dst)].transfer_cb(nbytes, notify)
            return 4
        tx.transfer_cb(nbytes, notify)
        rx.transfer_cb(nbytes, notify)
        return 2

    def transfer(self, src: int, dst: int, nbytes: float) -> Event:
        """Move ``nbytes`` between nodes (bandwidth part only).

        Inter-node flows occupy the source's transmit pipe and the
        destination's receive pipe concurrently and complete when both are
        drained; intra-node flows share the node's memory-copy link.
        Latency is *not* included — the MPI layer pays it per message.
        """
        segments = self.transfer_segments(src, dst, nbytes)
        if len(segments) == 1:
            return segments[0]
        return self.env.all_of(segments)

    def node(self, node_id: int) -> NodeSim:
        """The :class:`NodeSim` with the given id."""
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)
