"""Per-node OS state a deployment reads.

A :class:`NodeOS` records whether the node has host fabric userspace
(which a system-specific container bind-mounts) and which images its
local store already holds (Docker's layer cache).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import ClusterSpec


class NodeOS:
    """One node's operating-system state."""

    __slots__ = ("node_id", "has_fabric_userspace", "image_cache")

    def __init__(self, cluster: "ClusterSpec", node_id: int) -> None:
        self.node_id = node_id
        #: Whether host fabric libraries are installed on this node: the
        #: site provisions them where its interconnect needs them.
        self.has_fabric_userspace = cluster.fabric.needs_host_stack
        #: Digests of container images already present in the node's local
        #: store (Docker layer cache); a warm cache skips pull + extract.
        self.image_cache: set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NodeOS [{self.node_id}]>"
