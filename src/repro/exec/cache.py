"""Content-addressed outcome store: the result cache and the sweep checkpoint.

One file per grid point under a root directory, named
``<spec_key>.json`` and holding one point's outcome: ``status`` ``ok``
with a JSON-serialised :class:`~repro.core.metrics.ExperimentResult`,
or ``status`` ``failed`` with a :class:`~repro.exec.failures.FailedPoint`.
Because the key hashes everything that determines the simulation (see
:mod:`repro.exec.speckey`), invalidation is automatic: change any spec
field and the old entry is simply never looked up again.  A ``format``
field guards against schema drift — entries written by an incompatible
version (including every entry of the retired ``point-*.json``
checkpoint layout) read as misses, never as wrong data.

The executor uses this one class in two roles:

- the *result cache* (``.repro-cache/`` by default) holds successes
  only; a failed entry reads as a miss, so a failure is always retried;
- the *sweep checkpoint* (``failures=True``) also stores and replays
  failed points, so a resumed sweep replays exactly what already
  happened — success or failure — and executes only what is missing.

Every read rewrites ``spec_name`` to the requesting spec's name — the
key ignores display names, so a hit may come from a differently
labelled but physically identical run.

Corrupted or unreadable entries are treated as misses too (the point is
recomputed and the entry rewritten); a store must never be able to make
a study fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro.core.experiment import ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.exec import tmpfiles
from repro.exec.failures import FailedPoint
from repro.exec.speckey import spec_key

#: On-disk schema version; bump when the entry layout changes.
CACHE_FORMAT = 2

PointOutcome = Union[ExperimentResult, FailedPoint]


class ResultCache:
    """Spec-keyed persistent store of grid-point outcomes.

    Parameters
    ----------
    root:
        Directory holding the entries (created lazily on first write).
    failures:
        Store and replay failed points too (the checkpoint role).  Off,
        a failed entry reads as a miss.
    """

    def __init__(
        self, root: Union[str, Path] = ".repro-cache", failures: bool = False
    ) -> None:
        self.root = Path(root)
        self.failures = failures
        self._swept = False

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, spec: ExperimentSpec) -> Optional[PointOutcome]:
        """The stored outcome for ``spec`` (named ``spec.name``), or
        None on a miss."""
        path = self.path_for(spec_key(spec))
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != CACHE_FORMAT:
            return None
        status = payload.get("status")
        try:
            if status == "ok":
                outcome = ExperimentResult.from_json_dict(payload["result"])
            elif status == "failed" and self.failures:
                outcome = FailedPoint.from_json_dict(payload["failure"])
            else:
                return None
        except (KeyError, TypeError, ValueError, AttributeError):
            # Tampered-but-valid JSON (missing field, wrong-typed field,
            # string where a mapping belongs...) is corruption like any
            # other: a miss, never a crashed study.
            return None
        if outcome.spec_name != spec.name:
            outcome = dataclasses.replace(outcome, spec_name=spec.name)
        return outcome

    def put(self, spec: ExperimentSpec, outcome: PointOutcome) -> Path:
        """Persist ``outcome`` under ``spec``'s key (atomic replace).

        The first write of a store instance also sweeps temp files
        orphaned by crashed writers (see :mod:`repro.exec.tmpfiles`).
        """
        key = spec_key(spec)
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        if not self._swept:
            self._swept = True
            tmpfiles.sweep_stale(self.root)
        if isinstance(outcome, FailedPoint):
            body = {"status": "failed", "failure": outcome.to_json_dict()}
        else:
            body = {"status": "ok", "result": outcome.to_json_dict()}
        payload = {"format": CACHE_FORMAT, "key": key, **body}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        tmp.replace(path)
        return path

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.get(spec) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry (and leftover temp file); returns the
        number of files removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
            removed += tmpfiles.sweep_all(self.root)
        return removed
