"""Control groups (cgroups).

Docker places every container in its own cgroup under ``/docker``.  The
model keeps the tree and the pid membership; Docker creates each group
with no controller settings, so no cpuset, memory or cpu-quota limits
are modelled.
"""

from __future__ import annotations

from typing import Optional


class Cgroup:
    """One node of the cgroup hierarchy."""

    def __init__(self, name: str, parent: Optional["Cgroup"]) -> None:
        if "/" in name:
            raise ValueError(f"cgroup name may not contain '/': {name!r}")
        self.name = name
        self.parent = parent
        self.children: dict[str, Cgroup] = {}
        self.pids: set[int] = set()

    def path(self) -> str:
        """Absolute path of this group, e.g. ``/docker/ctr1``."""
        if self.parent is None:
            return "/"
        parent_path = self.parent.path()
        return parent_path.rstrip("/") + "/" + self.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cgroup {self.path()}>"


class CgroupHierarchy:
    """A mounted cgroup tree plus the pid → group assignment."""

    def __init__(self) -> None:
        self.root = Cgroup("", parent=None)
        self._pid_to_group: dict[int, Cgroup] = {}

    def create(self, path: str) -> Cgroup:
        """Create (mkdir -p) the group at ``path``."""
        if not path.startswith("/"):
            raise ValueError(f"cgroup path must be absolute: {path!r}")
        group = self.root
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise ValueError("cannot re-create the root group")
        for part in parts:
            if part not in group.children:
                group.children[part] = Cgroup(part, parent=group)
            group = group.children[part]
        return group

    def attach(self, pid: int, group: Cgroup) -> None:
        """Move ``pid`` into ``group`` (out of any previous group)."""
        old = self._pid_to_group.get(pid)
        if old is not None:
            old.pids.discard(pid)
        group.pids.add(pid)
        self._pid_to_group[pid] = group
