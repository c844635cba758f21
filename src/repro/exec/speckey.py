"""Canonical, content-addressed keys for experiment specs.

Two specs that describe the same simulation — same cluster, runtime,
build technique, work model, geometry, step count and granularity — must
map to the same key, and any change to a field that can alter the
simulated outcome must change it.  The spec's ``name`` is deliberately
*excluded*: it is a display label, not an input to the simulation (the
cache rewrites ``spec_name`` on a hit so reports still show the caller's
label).

The key is the SHA-256 of a canonical JSON payload: nested dataclasses
are flattened to tagged dicts, enums to ``ClassName.MEMBER`` strings,
and dict keys are sorted, so the serialisation is stable across runs and
processes (it never depends on hash seeds or insertion order).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.core.experiment import ExperimentSpec

#: Bump to invalidate every existing cache entry (e.g. when the
#: simulation model changes in a way the spec fields cannot express).
#: v2: sets canonicalise element-wise (recursively, with a type-tagged
#: sort) instead of via ``str()`` — ``{1}`` and ``{"1"}`` used to
#: collide to the same key.
#: v3: specs carry a ``workload`` field (the registry name); payloads
#: gained a key, so every pre-workload entry must read as a miss rather
#: than alias the Alya default.
KEY_VERSION = 3


def _set_sort_key(canon: Any) -> "tuple[str, str]":
    """Deterministic, type-discriminating sort key for set elements.

    Elements are already canonical (JSON-safe), so they serialise; the
    leading class-name tag keeps mixed-type sets totally ordered without
    ever comparing ``1`` to ``"1"`` (lexical ``str()`` sorting was the
    old collision).  ``bool`` tags differently from ``int`` because the
    class names differ.
    """
    return (
        canon.__class__.__name__,
        json.dumps(canon, sort_keys=True, separators=(",", ":")),
    )


def _canon(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-safe primitives, deterministically."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        payload = {
            f.name: _canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        payload["__dataclass__"] = type(obj).__name__
        return payload
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        # Canonicalise each element recursively (so an int stays an int
        # and never collides with its string rendering), then impose a
        # type-tagged total order — iteration order must not leak in.
        return sorted((_canon(v) for v in obj), key=_set_sort_key)
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__} for a spec key"
    )


def canonical_spec_payload(spec: ExperimentSpec) -> dict:
    """The JSON-safe dict whose hash is :func:`spec_key`.

    Covers every :class:`ExperimentSpec` field except ``name``.  Optional
    simulation extensions (``fault_plan``) are omitted entirely when
    unset, so keys for plain specs are stable across releases that add
    such fields — a PR 3 cache entry still hits today.
    """
    fields = {
        f.name: _canon(getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "name"
        and not (f.name == "fault_plan" and spec.fault_plan is None)
    }
    # Retired field: the collective short-circuit used to be an opt-in
    # spec field that defaulted to off.  It is now always allowed and
    # changes no result, so every key keeps the old default's entry —
    # existing cache entries stay valid and no key moves.
    fields["collective_fastpath"] = False
    return {"key_version": KEY_VERSION, "spec": fields}


def spec_key(spec: ExperimentSpec) -> str:
    """SHA-256 hex digest of the canonical spec payload."""
    blob = json.dumps(
        canonical_spec_payload(spec),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
