"""Per-node OS state: the bundle of kernel facilities a runtime engages.

A :class:`NodeOS` holds one node's host namespace set, root mount table,
process table and cgroup hierarchy, plus a root filesystem populated with
the host software stack (fabric userspace, host MPI) that system-specific
containers bind-mount.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.oskernel.cgroups import CgroupHierarchy
from repro.oskernel.mounts import MountTable
from repro.oskernel.namespaces import NamespaceSet
from repro.oskernel.processes import ProcessTable
from repro.oskernel.vfs import FileSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import ClusterSpec

#: Where the host keeps its MPI + fabric userspace (bind source for
#: system-specific deployments).
HOST_MPI_DIR = "/usr/lib64/mpi"
HOST_FABRIC_DIR = "/usr/lib64/fabric"


def standard_rootfs(cluster: "ClusterSpec") -> FileSystem:
    """A host root filesystem as provisioned on ``cluster``.

    Contains the host-matched MPI always, and fabric userspace when the
    cluster's interconnect needs it.
    """
    # Imported here to avoid a module cycle (containers.* imports nodeos).
    from repro.containers.packages import PACKAGE_DB

    fs = FileSystem(f"{cluster.name}-rootfs")
    fs.mkdir("/home/user", parents=True)
    fs.mkdir("/gpfs/scratch", parents=True)
    fs.mkdir("/tmp", parents=True)
    mpi = PACKAGE_DB["openmpi-fabric"]
    fs.write_file(
        f"{HOST_MPI_DIR}/libmpi.so", mpi.size_on(cluster.node.arch), parents=True
    )
    if cluster.fabric.needs_host_stack:
        psm = PACKAGE_DB["libpsm2"]
        rdma = PACKAGE_DB["rdma-core"]
        fs.write_file(
            f"{HOST_FABRIC_DIR}/libpsm2.so",
            psm.size_on(cluster.node.arch),
            parents=True,
        )
        fs.write_file(
            f"{HOST_FABRIC_DIR}/libibverbs.so",
            rdma.size_on(cluster.node.arch),
            parents=True,
        )
    return fs


class NodeOS:
    """One node's operating-system state."""

    def __init__(self, cluster: "ClusterSpec", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.rootfs = standard_rootfs(cluster)
        self.namespaces = NamespaceSet.host()
        self.mounts = MountTable(self.rootfs)
        self.processes = ProcessTable(self.namespaces, self.mounts)
        self.cgroups = CgroupHierarchy()
        #: Digests of container images already present in the node's local
        #: store (Docker layer cache); a warm cache skips pull + extract.
        self.image_cache: set[str] = set()

    @property
    def has_fabric_userspace(self) -> bool:
        """Whether host fabric libraries are installed on this node."""
        return self.rootfs.exists(HOST_FABRIC_DIR)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NodeOS {self.cluster.name}[{self.node_id}]>"
