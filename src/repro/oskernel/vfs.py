"""An in-memory virtual filesystem.

Container deployment is mostly filesystem work — extracting layers,
loop-mounting images, binding host directories — so the model needs a real
(if small) VFS: a tree of directories and sized files, with the usual
path operations.  Mount handling lives in :mod:`repro.oskernel.mounts`.
"""

from __future__ import annotations

from typing import Iterator, Optional


class VfsError(OSError):
    """Filesystem-level error (missing path, not a directory, read-only)."""


def normalize(path: str) -> str:
    """Normalise an absolute path (collapse slashes, resolve ``.``/``..``)."""
    if not path.startswith("/"):
        raise VfsError(f"path must be absolute: {path!r}")
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


def split_path(path: str) -> list[str]:
    """Components of a normalised absolute path."""
    norm = normalize(path)
    return [p for p in norm.split("/") if p]


class Node:
    """Base VFS node."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class File(Node):
    """A regular file; only its size (bytes) is modelled."""

    __slots__ = ("size",)

    def __init__(self, name: str, size: float = 0.0) -> None:
        super().__init__(name)
        if size < 0:
            raise VfsError(f"negative file size {size}")
        self.size = float(size)


class Directory(Node):
    """A directory with named children."""

    __slots__ = ("children",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.children: dict[str, Node] = {}


class FileSystem:
    """A single filesystem instance (one tree)."""

    def __init__(self, label: str = "fs") -> None:
        self.label = label
        self.root = Directory("")

    # -- lookup ---------------------------------------------------------------
    def lookup(self, path: str) -> Node:
        """Node at ``path``; raises :class:`VfsError` if missing."""
        node: Node = self.root
        for part in split_path(path):
            if not isinstance(node, Directory):
                raise VfsError(f"{path!r}: not a directory")
            try:
                node = node.children[part]
            except KeyError:
                raise VfsError(f"{path!r}: no such file or directory") from None
        return node

    def exists(self, path: str) -> bool:
        """Whether ``path`` resolves to a node."""
        try:
            self.lookup(path)
            return True
        except VfsError:
            return False

    def is_dir(self, path: str) -> bool:
        try:
            return isinstance(self.lookup(path), Directory)
        except VfsError:
            return False

    # -- mutation --------------------------------------------------------------
    def mkdir(self, path: str, parents: bool = False) -> Directory:
        """Create a directory (``mkdir -p`` when ``parents``)."""
        node: Node = self.root
        parts = split_path(path)
        if not parts:
            return self.root
        for i, part in enumerate(parts):
            assert isinstance(node, Directory)
            child = node.children.get(part)
            last = i == len(parts) - 1
            if child is None:
                if not last and not parents:
                    raise VfsError(f"{path!r}: parent missing")
                child = Directory(part)
                node.children[part] = child
            elif not isinstance(child, Directory):
                raise VfsError(f"{path!r}: component is a file")
            elif last and not parents:
                raise VfsError(f"{path!r}: already exists")
            node = child
        assert isinstance(node, Directory)
        return node

    def write_file(self, path: str, size: float, parents: bool = False) -> File:
        """Create or overwrite a file of ``size`` bytes."""
        parts = split_path(path)
        if not parts:
            raise VfsError("cannot write to /")
        parent_path = "/" + "/".join(parts[:-1])
        if not self.exists(parent_path):
            if not parents:
                raise VfsError(f"{path!r}: parent missing")
            self.mkdir(parent_path, parents=True)
        parent = self.lookup(parent_path)
        if not isinstance(parent, Directory):
            raise VfsError(f"{parent_path!r}: not a directory")
        existing = parent.children.get(parts[-1])
        if isinstance(existing, Directory):
            raise VfsError(f"{path!r}: is a directory")
        f = File(parts[-1], size)
        parent.children[parts[-1]] = f
        return f

    # -- measurement ------------------------------------------------------------
    def size_of(self, path: str) -> float:
        """Size of a file in bytes."""
        node = self.lookup(path)
        if not isinstance(node, File):
            raise VfsError(f"{path!r}: not a file")
        return node.size

    def walk_files(self, path: str = "/") -> Iterator[tuple[str, File]]:
        """Yield ``(abspath, File)`` pairs under ``path``."""
        start = self.lookup(path)
        base = normalize(path).rstrip("/")

        def _walk(prefix: str, node: Node) -> Iterator[tuple[str, File]]:
            if isinstance(node, File):
                yield prefix, node
            elif isinstance(node, Directory):
                for name, child in sorted(node.children.items()):
                    yield from _walk(prefix + "/" + name, child)

        if isinstance(start, File):
            yield base or "/" + start.name, start
        else:
            yield from _walk(base, start)

    def copy_tree(self, label: Optional[str] = None) -> "FileSystem":
        """Deep copy of this filesystem (used for snapshot semantics)."""
        clone = FileSystem(label or self.label)

        def _copy(src: Directory, dst: Directory) -> None:
            for name, child in src.children.items():
                if isinstance(child, File):
                    dst.children[name] = File(name, child.size)
                else:
                    sub = Directory(name)
                    dst.children[name] = sub
                    _copy(child, sub)

        _copy(self.root, clone.root)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FileSystem {self.label!r}>"
