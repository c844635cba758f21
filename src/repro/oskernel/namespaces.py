"""Linux namespaces.

A namespace virtualises one global kernel resource.  Container runtimes
differ in which kinds they unshare; the set determines both isolation
*and* cost: a new NET namespace means the process no longer sees the host
fabric devices — the mechanistic reason Docker's MPI traffic takes the
bridge path while Singularity's does not.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
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

_ns_ids = itertools.count(0xF0000000)


@dataclass(frozen=True)
class Namespace:
    """A single namespace instance."""

    kind: NamespaceKind
    ns_id: int = field(default_factory=lambda: next(_ns_ids))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.kind.value}:[{self.ns_id}]"


class NamespaceSet:
    """The full set of namespaces a process lives in."""

    def __init__(self, namespaces: dict[NamespaceKind, Namespace]) -> None:
        missing = set(NamespaceKind) - set(namespaces)
        if missing:
            raise ValueError(f"namespace set missing kinds: {sorted(k.value for k in missing)}")
        self._ns = dict(namespaces)

    @classmethod
    def host(cls) -> "NamespaceSet":
        """A fresh host (init) namespace set."""
        return cls({kind: Namespace(kind) for kind in NamespaceKind})

    def get(self, kind: NamespaceKind) -> Namespace:
        """The namespace of ``kind`` this set refers to."""
        return self._ns[kind]

    def unshare(self, kinds: Iterable[NamespaceKind]) -> "NamespaceSet":
        """New set with fresh namespaces for ``kinds``, sharing the rest."""
        new = dict(self._ns)
        for kind in kinds:
            new[kind] = Namespace(kind)
        return NamespaceSet(new)

    def shares(self, other: "NamespaceSet", kind: NamespaceKind) -> bool:
        """True if both sets refer to the same ``kind`` namespace."""
        return self._ns[kind].ns_id == other._ns[kind].ns_id

    def isolated_kinds(self, host: "NamespaceSet") -> frozenset[NamespaceKind]:
        """Kinds where this set differs from ``host``."""
        return frozenset(
            kind for kind in NamespaceKind if not self.shares(host, kind)
        )

    @staticmethod
    def setup_cost(kinds: Iterable[NamespaceKind]) -> float:
        """Total kernel time (s) to unshare ``kinds``.

        Summed in sorted-kind order: set iteration order varies between
        processes (enum members hash by id), and float addition is not
        associative, so an unordered sum would make deployment times —
        and therefore trace digests — differ across processes.
        """
        return sum(SETUP_COST[k] for k in sorted(kinds, key=lambda k: k.value))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NamespaceSet {sorted(k.value for k in self._ns)}>"


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
