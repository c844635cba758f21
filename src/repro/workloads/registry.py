"""The named workload registry.

A process-global, insertion-ordered map ``name -> Workload`` instance.
The built-in workloads (``alya``, ``stencil``, ``graph``) register
themselves when :mod:`repro.workloads` is imported; third-party
workloads call :func:`register` with their own
:class:`~repro.workloads.base.Workload` subclass instance (see
``docs/workloads.md`` for the how-to and the determinism contract).

Lookup failures list what *is* registered, so a typo in
``--workload`` or ``ExperimentSpec.workload`` fails loudly and
immediately — never as a silently wrong simulation.
"""

from __future__ import annotations

from repro.workloads.base import Workload

_REGISTRY: "dict[str, Workload]" = {}


def register(workload: Workload, *, replace: bool = False) -> Workload:
    """Add ``workload`` under its :attr:`~Workload.name`.

    Registering a second workload under an existing name raises unless
    ``replace=True`` — accidental shadowing of a built-in would change
    every spec key's meaning without changing any key.
    """
    name = workload.name
    if not name or not isinstance(name, str):
        raise ValueError("a workload needs a non-empty string name")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"workload {name!r} is already registered "
            f"(pass replace=True to shadow it deliberately)"
        )
    _REGISTRY[name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """The registered workload called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {list_workloads()}"
        ) from None


def list_workloads() -> "list[str]":
    """Registered names, in registration order (built-ins first)."""
    return list(_REGISTRY)
