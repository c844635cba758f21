"""Process table with namespace unsharing and SUID credential transitions.

Two container-relevant mechanisms are modelled:

- **Namespace unsharing**: a fork may unshare namespace kinds; a new
  MOUNT namespace gets a private copy of the parent's mount table.
- **SUID escalation** (§A): Singularity's and Shifter's starters are
  root-owned SUID binaries — an unprivileged user's process temporarily
  gains euid 0 to perform mounts, then drops privileges before running
  user code.  Docker instead talks to an always-root daemon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from repro.oskernel.cgroups import Cgroup
from repro.oskernel.mounts import MountTable
from repro.oskernel.namespaces import NamespaceKind, NamespaceSet


@dataclass(frozen=True)
class Credentials:
    """uid/euid pair; euid 0 means privileged operations are allowed."""

    uid: int
    euid: int

    @classmethod
    def user(cls, uid: int) -> "Credentials":
        return cls(uid=uid, euid=uid)

    @classmethod
    def root(cls) -> "Credentials":
        return cls(uid=0, euid=0)

    @property
    def is_privileged(self) -> bool:
        return self.euid == 0

    def escalate_suid(self) -> "Credentials":
        """Run a root-owned SUID binary: euid becomes 0, uid stays."""
        return replace(self, euid=0)

    def drop_privileges(self) -> "Credentials":
        """Return to the real uid."""
        return replace(self, euid=self.uid)


class ProcessError(RuntimeError):
    """Invalid process operation (missing pid, permission, ...)."""


@dataclass
class SimProcess:
    """A process table entry."""

    global_pid: int
    parent: Optional[int]
    argv: tuple[str, ...]
    creds: Credentials
    namespaces: NamespaceSet
    mount_table: MountTable
    cgroup: Optional[Cgroup] = None


class ProcessTable:
    """All processes on one (simulated) node."""

    def __init__(self, host_namespaces: NamespaceSet, root_mounts: MountTable) -> None:
        self._global_pids = itertools.count(1)
        self.processes: dict[int, SimProcess] = {}
        init = self._make(
            parent=None,
            argv=("init",),
            creds=Credentials.root(),
            namespaces=host_namespaces,
            mount_table=root_mounts,
        )
        self.init_pid = init.global_pid

    # -- internals ----------------------------------------------------------------
    def _make(
        self,
        parent: Optional[int],
        argv: tuple[str, ...],
        creds: Credentials,
        namespaces: NamespaceSet,
        mount_table: MountTable,
        cgroup: Optional[Cgroup] = None,
    ) -> SimProcess:
        gpid = next(self._global_pids)
        proc = SimProcess(
            global_pid=gpid,
            parent=parent,
            argv=argv,
            creds=creds,
            namespaces=namespaces,
            mount_table=mount_table,
            cgroup=cgroup,
        )
        self.processes[gpid] = proc
        return proc

    # -- API --------------------------------------------------------------------
    def get(self, global_pid: int) -> SimProcess:
        try:
            return self.processes[global_pid]
        except KeyError:
            raise ProcessError(f"no such process {global_pid}") from None

    def fork(
        self,
        parent_pid: int,
        argv: tuple[str, ...],
        unshare: frozenset[NamespaceKind] = frozenset(),
        creds: Optional[Credentials] = None,
    ) -> SimProcess:
        """Fork (+unshare) a child of ``parent_pid``.

        Unsharing MOUNT clones the parent's mount table (private
        propagation).  Unsharing any namespace other than USER requires
        privilege — *unless* a USER namespace is unshared in the same
        call, which grants the child full capabilities over the new
        namespaces (the kernel rule rootless runtimes like Charliecloud
        build on; SUID helpers and root daemons exist for runtimes that
        do not use user namespaces).
        """
        parent = self.get(parent_pid)
        child_creds = creds if creds is not None else parent.creds
        privileged_kinds = unshare - {NamespaceKind.USER}
        userns_in_same_call = NamespaceKind.USER in unshare
        if (
            privileged_kinds
            and not parent.creds.is_privileged
            and not userns_in_same_call
        ):
            raise ProcessError(
                f"unsharing {sorted(k.value for k in privileged_kinds)} "
                "requires privilege (euid 0) or a simultaneous USER namespace"
            )
        namespaces = parent.namespaces.unshare(unshare) if unshare else parent.namespaces
        mount_table = (
            parent.mount_table.clone()
            if NamespaceKind.MOUNT in unshare
            else parent.mount_table
        )
        return self._make(
            parent=parent_pid,
            argv=argv,
            creds=child_creds,
            namespaces=namespaces,
            mount_table=mount_table,
            cgroup=parent.cgroup,
        )
