"""Request shapes for the serving layer.

The in-process API (:meth:`~repro.serve.service.StudyService.submit`)
takes full :class:`~repro.core.experiment.ExperimentSpec` objects; the
``repro-serve`` CLI and the throughput benchmark speak a small JSON
dialect instead — one dict per request group, naming a paper figure
shape plus the knobs that matter for traffic replay::

    {"fig": "fig1", "runtime": "docker",      "nodes": 2, "count": 32}
    {"fig": "fig3", "runtime": "singularity", "nodes": 8, "count": 4,
     "sim_steps": 1, "delay_ms": 10}
    {"fig": "fig1", "workload": "stencil",    "nodes": 2, "count": 8}

``fig`` picks the cluster/geometry template (Lenox-sized for ``fig1``,
MareNostrum4-sized for ``fig3`` — the same shapes ``repro-study trace``
drives); ``workload`` picks the registered application model whose
:meth:`~repro.workloads.base.Workload.default_workmodel` fills the case
(default ``alya``); ``count`` replays the request that many times
concurrently; ``delay_ms`` sleeps before the group is fired, to shape
bursts.  Unknown keys are rejected so a typo cannot silently change a
replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.experiment import ExperimentSpec
from repro.core.study import figure_spec

#: Request-dialect keys the replay scripts may use.
_ALLOWED_KEYS = {
    "fig", "runtime", "nodes", "sim_steps", "count", "delay_ms", "workload",
}

@dataclass(frozen=True)
class RequestGroup:
    """One line of a replay script: a spec plus traffic shaping."""

    spec: ExperimentSpec
    count: int = 1
    delay_ms: float = 0.0


def build_spec(
    fig: str,
    runtime: Optional[str] = None,
    nodes: int = 2,
    sim_steps: int = 1,
    workload: str = "alya",
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` for one of the paper's figure shapes.

    The figure template (:func:`~repro.core.study.figure_spec`) is the
    one ``repro-study trace`` uses; the work model comes from the
    ``workload``'s registry entry, so a request can never pair a
    workload with a foreign work model.  Alya spec names keep their
    historical ``serve-{fig}-{runtime}-n{nodes}`` form (the
    trace/scoreboard fixtures encode them); other workloads tag the name
    with the workload.
    """
    return figure_spec(
        fig, "serve-{fig}-{tag}{runtime}-n{nodes}", runtime=runtime,
        nodes=nodes, sim_steps=sim_steps, workload=workload,
    )


def parse_request(payload: dict) -> RequestGroup:
    """One script line -> :class:`RequestGroup` (strict about keys)."""
    if not isinstance(payload, dict):
        raise ValueError(f"request must be an object, got {payload!r}")
    unknown = set(payload) - _ALLOWED_KEYS
    if unknown:
        raise ValueError(
            f"unknown request key(s) {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS)}"
        )
    count = int(payload.get("count", 1))
    if count < 1:
        raise ValueError("count must be >= 1")
    delay_ms = float(payload.get("delay_ms", 0.0))
    if delay_ms < 0:
        raise ValueError("delay_ms must be >= 0")
    spec = build_spec(
        fig=payload.get("fig", "fig1"),
        runtime=payload.get("runtime"),
        nodes=int(payload.get("nodes", 2)),
        sim_steps=int(payload.get("sim_steps", 1)),
        workload=str(payload.get("workload", "alya")),
    )
    return RequestGroup(spec=spec, count=count, delay_ms=delay_ms)


def parse_script(payload) -> list[RequestGroup]:
    """A whole replay script (JSON list of request objects)."""
    if not isinstance(payload, list) or not payload:
        raise ValueError("replay script must be a non-empty JSON list")
    return [parse_request(entry) for entry in payload]
