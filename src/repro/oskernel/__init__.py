"""Linux-kernel container machinery, modelled.

The paper distinguishes the runtimes by *which* kernel facilities they
engage (§A): Docker uses a root daemon, cgroups, and the full namespace
set (including a network namespace, hence bridge+NAT for MPI); Singularity
and Shifter use a SUID helper and only Mount + PID namespaces, leaving the
host network and fabric visible.  This subpackage models those facilities
directly so runtime behaviour emerges from mechanism:

- :mod:`repro.oskernel.namespaces` — namespace kinds, sets, setup costs;
- :mod:`repro.oskernel.cgroups` — the cgroup tree and its pid membership;
- :mod:`repro.oskernel.vfs` — an in-memory VFS; :mod:`repro.oskernel.mounts`
  adds bind, overlay and squashfs-loop mounts (image deployment is mount
  work);
- :mod:`repro.oskernel.processes` — process table with namespace
  unsharing and SUID credential transitions.
"""

from repro.oskernel.namespaces import Namespace, NamespaceKind, NamespaceSet
from repro.oskernel.cgroups import Cgroup, CgroupHierarchy
from repro.oskernel.vfs import FileSystem, VfsError
from repro.oskernel.mounts import MountTable, OverlayFS
from repro.oskernel.processes import Credentials, ProcessTable

__all__ = [
    "Cgroup",
    "CgroupHierarchy",
    "Credentials",
    "FileSystem",
    "MountTable",
    "OverlayFS",
    "Namespace",
    "NamespaceKind",
    "NamespaceSet",
    "ProcessTable",
    "VfsError",
]
