"""Stale temp-file hygiene for the atomic-write outcome store.

:class:`~repro.exec.cache.ResultCache` (in both its cache and its
checkpoint role) writes entries as ``<key>.tmp.<pid>`` followed by an
atomic :meth:`Path.replace`.  A process killed between the write and
the replace leaves the temp file behind forever — harmless
individually, but a long-lived store directory under a crashy workload
accumulates them without bound, and ``clear()`` previously removed only
the committed ``*.json`` entries.

This module centralises the sweep logic:

- a temp file is *stale* when its ``<pid>`` suffix does not name a live
  process (or is not a pid at all) — a live suffix may belong to a
  concurrent writer mid-``replace`` and must be left alone;
- :func:`sweep_stale` removes the stale ones, best-effort (a file that
  vanishes mid-sweep, e.g. because its writer completed the replace, is
  not an error).

Writers call :func:`sweep_stale` opportunistically (once per store
instance, on the first write) so ordinary use self-heals; ``clear()``
removes *every* temp file, live or not — an explicit wipe means the
directory's contents are unwanted.
"""

from __future__ import annotations

import os
from pathlib import Path

#: Glob matching the atomic-write temp files the store produces
#: (``<key>.tmp.<pid>``).
TMP_GLOB = "*.tmp.*"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0, no signal delivered)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user's
        return True
    except OSError:  # pragma: no cover - e.g. pid out of platform range
        return False
    return True


def is_stale(path: Path) -> bool:
    """True when ``path``'s ``.tmp.<pid>`` suffix names no live process.

    The current process's own temp files are never stale (they may be an
    in-progress write happening on another thread).
    """
    suffix = path.name.rsplit(".", 1)[-1]
    try:
        pid = int(suffix)
    except ValueError:
        return True  # not even a pid — nothing can be mid-replace
    if pid == os.getpid():
        return False
    return not _pid_alive(pid)


def iter_tmp_files(root: Path) -> list[Path]:
    """Every atomic-write temp file under ``root`` (sorted, may be [])."""
    if not root.is_dir():
        return []
    return sorted(root.glob(TMP_GLOB))


def sweep_stale(root: Path) -> int:
    """Remove orphaned temp files under ``root``; returns the count.

    Best-effort: files that disappear mid-sweep or cannot be unlinked
    are skipped, never raised — hygiene must not be able to fail a run.
    """
    removed = 0
    for path in iter_tmp_files(root):
        if not is_stale(path):
            continue
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing writer/permissions
            pass
    return removed


def sweep_all(root: Path) -> int:
    """Remove every temp file under ``root`` (for explicit ``clear()``)."""
    removed = 0
    for path in iter_tmp_files(root):
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover
            pass
    return removed
