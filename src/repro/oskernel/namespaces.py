"""Linux namespaces.

A namespace virtualises one global kernel resource.  Container runtimes
differ in which kinds they unshare; the set determines both isolation
*and* cost: a new NET namespace means the process no longer sees the host
fabric devices — the mechanistic reason Docker's MPI traffic takes the
bridge path while Singularity's does not.
"""

from __future__ import annotations

import enum
from typing import Iterable


class NamespaceKind(enum.Enum):
    """The seven namespace kinds (``man 7 namespaces``)."""

    MOUNT = "mnt"
    PID = "pid"
    NET = "net"
    UTS = "uts"
    IPC = "ipc"
    USER = "user"
    CGROUP = "cgroup"


#: One-time kernel-side setup cost per namespace kind, seconds.  NET is by
#: far the most expensive (device creation, veth pair, addresses, routes);
#: figures follow published `unshare()` microbenchmarks.
SETUP_COST: dict[NamespaceKind, float] = {
    NamespaceKind.MOUNT: 0.0008,
    NamespaceKind.PID: 0.0003,
    NamespaceKind.NET: 0.150,
    NamespaceKind.UTS: 0.0001,
    NamespaceKind.IPC: 0.0002,
    NamespaceKind.USER: 0.0005,
    NamespaceKind.CGROUP: 0.0002,
}


def setup_cost(kinds: Iterable[NamespaceKind]) -> float:
    """Total kernel time (s) to unshare ``kinds``.

    Summed in sorted-kind order: set iteration order varies between
    processes (enum members hash by id), and float addition is not
    associative, so an unordered sum would make deployment times — and
    therefore trace digests — differ across processes.
    """
    return sum(SETUP_COST[k] for k in sorted(kinds, key=lambda k: k.value))


#: The namespace kinds Docker unshares for every container (full isolation).
DOCKER_KINDS = frozenset(
    {
        NamespaceKind.MOUNT,
        NamespaceKind.PID,
        NamespaceKind.NET,
        NamespaceKind.UTS,
        NamespaceKind.IPC,
    }
)

#: Singularity's and Shifter's minimal set (§A: "they only handle Mount and
#: PID namespaces").
HPC_KINDS = frozenset({NamespaceKind.MOUNT, NamespaceKind.PID})
