"""Mounts: bind, squashfs-loop, and overlay.

A :class:`MountTable` belongs to one mount namespace.  Cloning the table
(what ``unshare(CLONE_NEWNS)`` does with private propagation) lets a
container arrange its own view — loop-mount its image, bind host
directories — without the host seeing any of it.  Longest-prefix
resolution routes each path to the mount that owns it.

Overlay mounts implement the Docker storage model: the image's layers are
read-only *lower* directories, writes go to a private *upper* through
copy-up — whose cost (bytes copied) the runtimes charge to deployment or
I/O time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.oskernel import vfs as _vfs


class MountError(OSError):
    """Invalid mount operation."""


@dataclass
class Mount:
    """Base mount entry: a filesystem grafted at ``target``."""

    target: str
    fs: "_vfs.FileSystem"
    source_prefix: str = "/"
    readonly: bool = False
    kind: str = "bind"

    def __post_init__(self) -> None:
        self.target = _vfs.normalize(self.target)
        self.source_prefix = _vfs.normalize(self.source_prefix)

    def translate(self, path: str) -> str:
        """Translate an absolute ``path`` under ``target`` into the fs."""
        norm = _vfs.normalize(path)
        if norm == self.target:
            rel = ""
        elif norm.startswith(self.target.rstrip("/") + "/"):
            rel = norm[len(self.target.rstrip("/")):]
        else:
            raise MountError(f"{path!r} not under mount {self.target!r}")
        base = self.source_prefix.rstrip("/")
        return (base + rel) or "/"


class OverlayFS(_vfs.FileSystem):
    """Union filesystem: ordered read-only lowers + one writable upper.

    Lookup order is upper, then lowers top-to-bottom.  Writes copy
    nothing eagerly; the :attr:`bytes_copied_up` counter accumulates
    copy-up volume so callers can charge the I/O cost.
    """

    def __init__(
        self,
        lowers: Sequence[_vfs.FileSystem],
        upper: Optional[_vfs.FileSystem] = None,
        label: str = "overlay",
    ) -> None:
        super().__init__(label)
        if not lowers:
            raise MountError("overlay needs at least one lower layer")
        self.lowers = list(lowers)
        self.upper = upper or _vfs.FileSystem(label + "-upper")
        self.bytes_copied_up = 0.0

    # -- resolution across layers ------------------------------------------------
    def _layer_with(self, path: str) -> Optional[_vfs.FileSystem]:
        norm = _vfs.normalize(path)
        if self.upper.exists(norm):
            return self.upper
        for lower in self.lowers:
            if lower.exists(norm):
                return lower
        return None

    def lookup(self, path: str) -> _vfs.Node:
        layer = self._layer_with(path)
        if layer is None:
            raise _vfs.VfsError(f"{path!r}: no such file or directory")
        return layer.lookup(path)

    def exists(self, path: str) -> bool:
        return self._layer_with(path) is not None

    # -- writes (all go to upper) -------------------------------------------------
    def write_file(self, path: str, size: float, parents: bool = False):
        norm = _vfs.normalize(path)
        layer = self._layer_with(norm)
        if layer is not None and layer is not self.upper:
            node = layer.lookup(norm)
            if isinstance(node, _vfs.File):
                # Copy-up: modifying a lower file materialises it above.
                self.bytes_copied_up += node.size
        return self.upper.write_file(path, size, parents=True)

    def du(self, path: str = "/") -> float:
        total = 0.0
        seen: set[str] = set()
        for layer in [self.upper, *self.lowers]:
            try:
                files = list(layer.walk_files(path))
            except _vfs.VfsError:
                continue
            for abspath, f in files:
                if abspath in seen:
                    continue
                seen.add(abspath)
                total += f.size
        return total


class MountTable:
    """The mounts visible in one mount namespace."""

    def __init__(self, rootfs: _vfs.FileSystem) -> None:
        self.rootfs = rootfs
        self.mounts: list[Mount] = []

    # -- namespace semantics -------------------------------------------------------
    def clone(self) -> "MountTable":
        """Private copy of the table (new mount namespace)."""
        table = MountTable(self.rootfs)
        table.mounts = list(self.mounts)
        return table

    # -- mounting ---------------------------------------------------------------
    def bind(
        self,
        source_fs: _vfs.FileSystem,
        source_path: str,
        target: str,
        readonly: bool = False,
    ) -> Mount:
        """Bind ``source_fs:source_path`` at ``target``."""
        if not source_fs.is_dir(source_path):
            raise MountError(f"bind source {source_path!r} is not a directory")
        m = Mount(target, source_fs, source_path, readonly, kind="bind")
        self.mounts.append(m)
        return m

    def mount_squashfs(self, image_tree: _vfs.FileSystem, target: str) -> Mount:
        """Loop-mount a squashfs image (always read-only)."""
        m = Mount(target, image_tree, "/", True, kind="squashfs")
        self.mounts.append(m)
        return m

    def mount_overlay(
        self,
        lowers: Sequence[_vfs.FileSystem],
        target: str,
        upper: Optional[_vfs.FileSystem] = None,
    ) -> Mount:
        """Mount an overlay of ``lowers`` (+ writable upper) at ``target``."""
        overlay = OverlayFS(lowers, upper)
        m = Mount(target, overlay, "/", False, kind="overlay")
        self.mounts.append(m)
        return m

    # -- resolution ---------------------------------------------------------------
    def resolve(self, path: str) -> tuple[_vfs.FileSystem, str, bool]:
        """Route ``path`` to ``(filesystem, inner_path, readonly)``.

        The most recent longest-prefix mount wins, mirroring kernel
        behaviour for stacked mounts.
        """
        norm = _vfs.normalize(path)
        best: Optional[Mount] = None
        best_len = -1
        for m in self.mounts:
            t = m.target.rstrip("/") or "/"
            if norm == t or norm.startswith(t + "/") or t == "/":
                if len(t) >= best_len:
                    best = m
                    best_len = len(t)
        if best is None:
            return self.rootfs, norm, False
        return best.fs, best.translate(norm), best.readonly

    # -- convenience I/O through the table ------------------------------------------
    def exists(self, path: str) -> bool:
        fs, inner, _ = self.resolve(path)
        return fs.exists(inner)

    def write_file(self, path: str, size: float) -> None:
        fs, inner, readonly = self.resolve(path)
        if readonly:
            raise MountError(f"{path!r}: read-only file system")
        fs.write_file(inner, size, parents=True)

    def size_of(self, path: str) -> float:
        fs, inner, _ = self.resolve(path)
        return fs.size_of(inner)
