"""Linux-kernel container machinery, modelled.

The paper distinguishes the runtimes by *which* kernel facilities they
engage (§A): Docker uses a root daemon, cgroups, and the full namespace
set (including a network namespace, hence bridge+NAT for MPI); Singularity
and Shifter use a SUID helper and only Mount + PID namespaces, leaving the
host network and fabric visible.  Each runtime declares the namespace
kinds it unshares, and that one declaration sets both its namespace
setup cost and the network path its MPI traffic takes:

- :mod:`repro.oskernel.namespaces` — namespace kinds, the runtimes' kind
  sets and their setup costs;
- :mod:`repro.oskernel.vfs` — an in-memory VFS holding image layer trees;
- :mod:`repro.oskernel.nodeos` — the per-node state a deployment reads
  (host fabric userspace, the local image cache).
"""

from repro.oskernel.namespaces import NamespaceKind, setup_cost
from repro.oskernel.vfs import FileSystem, VfsError

__all__ = [
    "FileSystem",
    "NamespaceKind",
    "VfsError",
    "setup_cost",
]
