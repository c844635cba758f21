"""Deterministic fault plans.

A :class:`FaultPlan` describes *what goes wrong and when* for one
simulated run: an explicit schedule of :class:`FaultEvent`\\ s, a seeded
rate-based generator, or both.  Plans are pure data — frozen dataclasses
of primitives — so they serialise losslessly to JSON, pickle across
worker processes, and canonicalise into the executor's spec key (a run
with a plan never collides with the same run without one).

Determinism contract
--------------------
``compile(n_nodes)`` is a pure function of ``(plan, n_nodes)``: the
rate-based generator draws from ``random.Random`` seeded with the plan's
``seed`` and the node count, never from global or wall-clock state.  Two
compilations of the same plan against the same allocation yield the
identical event list — which is what makes chaos runs reproducible
across reruns and worker counts.

The *tolerance* knobs (failure-detection timeout, requeue policy, pull
retry policy) travel with the plan so a spec fully describes both the
faults and how the stack absorbs them.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union


class FaultKind(enum.Enum):
    """What kind of failure a :class:`FaultEvent` injects."""

    #: A node dies fail-stop; every rank of a running job is lost.
    NODE_CRASH = "node-crash"
    #: A node's NIC (or, with ``node=-1``, the registry egress) runs at
    #: ``factor`` of its nominal bandwidth for ``duration`` seconds.
    LINK_DEGRADE = "link-degrade"
    #: Bandwidth drops to zero for ``duration`` seconds (flap/partition).
    LINK_PARTITION = "link-partition"
    #: A node computes ``factor``x slower for ``duration`` seconds.
    STRAGGLER = "straggler"
    #: A registry pull attempt hangs for ``duration`` seconds, then fails.
    REGISTRY_TIMEOUT = "registry-timeout"
    #: A pull attempt fails after transferring ``factor`` of the bytes.
    PULL_FAIL = "pull-fail"
    #: A pull transfers fully but the layer digest does not verify.
    CORRUPT_LAYER = "corrupt-layer"


#: Kinds consumed per *pull attempt* rather than scheduled on the clock.
PULL_KINDS = frozenset(
    {FaultKind.REGISTRY_TIMEOUT, FaultKind.PULL_FAIL, FaultKind.CORRUPT_LAYER}
)
#: Kinds applied to bandwidth links at a scheduled time.
LINK_KINDS = frozenset({FaultKind.LINK_DEGRADE, FaultKind.LINK_PARTITION})


@dataclass(frozen=True)
class FaultEvent:
    """One concrete injected failure.

    Attributes
    ----------
    time:
        Simulated second the fault strikes (ignored for pull-consumed
        kinds, which fire on the Nth pull attempt instead).
    kind:
        What fails.
    node:
        Target node id; ``-1`` targets the registry egress (link kinds)
        or is unused (pull kinds).
    duration:
        How long the condition lasts (degrade/partition/straggler) or
        how long the timeout hangs (registry-timeout).
    factor:
        Bandwidth multiplier (degrade), CPU slowdown multiplier
        (straggler, >= 1), or fraction of bytes moved before the failure
        (pull-fail).
    """

    time: float
    kind: FaultKind
    node: int = -1
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:
            raise ValueError("fault time must be finite and >= 0")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError("fault duration must be finite and >= 0")
        if not 0.0 <= self.factor < math.inf:
            raise ValueError("fault factor must be finite and >= 0")
        if self.kind is FaultKind.STRAGGLER and not 1.0 <= self.factor:
            raise ValueError("a straggler factor must be >= 1 (slowdown)")
        if self.kind is FaultKind.LINK_DEGRADE and not self.factor < 1.0:
            raise ValueError("a degrade factor must be < 1")

    def to_json_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind.value,
            "node": self.node,
            "duration": self.duration,
            "factor": self.factor,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultEvent":
        return cls(
            time=payload["time"],
            kind=FaultKind(payload["kind"]),
            node=payload.get("node", -1),
            duration=payload.get("duration", 0.0),
            factor=payload.get("factor", 1.0),
        )


@dataclass(frozen=True)
class Tolerance:
    """How the stack absorbs injected faults.

    Attributes
    ----------
    detect_timeout:
        Seconds between a node crash and the moment surviving MPI ranks
        observe :class:`~repro.faults.errors.RankFailure` (models the MPI
        runtime's failure-detection delay).
    max_requeues:
        Crashed-job re-runs the scheduler attempts before the run fails
        for good.
    requeue_backoff:
        Seconds before the first requeue; doubles per attempt.
    pull_max_retries:
        Registry pull retries before deployment gives up.
    pull_backoff / pull_backoff_factor:
        First-retry delay and its per-attempt multiplier.
    """

    detect_timeout: float = 0.05
    max_requeues: int = 2
    requeue_backoff: float = 0.5
    pull_max_retries: int = 3
    pull_backoff: float = 0.25
    pull_backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.detect_timeout < math.inf
                and 0.0 <= self.requeue_backoff < math.inf):
            raise ValueError("timeouts/backoffs must be finite and >= 0")
        if self.max_requeues < 0 or self.pull_max_retries < 0:
            raise ValueError("retry counts must be >= 0")
        if not (0.0 <= self.pull_backoff < math.inf
                and 1.0 <= self.pull_backoff_factor < math.inf):
            raise ValueError(
                "pull backoff must be finite, backoff >= 0, factor >= 1"
            )

    def requeue_delay(self, attempt: int) -> float:
        """Backoff before requeue number ``attempt`` (1-based)."""
        return self.requeue_backoff * (2.0 ** (attempt - 1))

    def pull_delay(self, attempt: int) -> float:
        """Backoff before pull retry number ``attempt`` (1-based)."""
        return self.pull_backoff * (self.pull_backoff_factor ** (attempt - 1))

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Tolerance":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible description of a run's failures.

    Two sources of events combine:

    - ``schedule`` — explicit :class:`FaultEvent`\\ s, passed through
      verbatim;
    - rates — per-kind event frequencies expanded deterministically from
      ``seed`` over ``[0, horizon)`` at :meth:`compile` time (rate ×
      horizon events per kind, stratified times — one uniform draw per
      equal slice of the horizon — and uniform node targets).

    ``pull_fail_count`` is attempt-indexed rather than clocked: that many
    consecutive registry pull attempts fail before pulls succeed again.
    """

    schedule: tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None
    #: Simulated-time window the rate-based generator covers.
    horizon: float = 30.0
    #: Link-degrade events per simulated second (across the allocation).
    link_degrade_rate: float = 0.0
    #: Link partitions (bandwidth → 0) per simulated second.
    link_partition_rate: float = 0.0
    #: Node crashes per simulated second.
    crash_rate: float = 0.0
    #: Straggler (CPU slowdown) episodes per simulated second.
    straggler_rate: float = 0.0
    #: Consecutive registry pull attempts that fail at job start.
    pull_fail_count: int = 0
    #: Bandwidth multiplier during generated link-degrade events.
    degrade_factor: float = 0.25
    #: CPU slowdown during generated straggler episodes.
    straggler_factor: float = 3.0
    #: Duration of generated degrade/partition/straggler episodes.
    fault_duration: float = 2.0
    tolerance: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and positive")
        rates = (
            self.link_degrade_rate,
            self.link_partition_rate,
            self.crash_rate,
            self.straggler_rate,
        )
        if not all(0.0 <= r < math.inf for r in rates):
            raise ValueError("fault rates must be finite and >= 0")
        if self.pull_fail_count < 0:
            raise ValueError("pull_fail_count must be >= 0")
        if not 0.0 <= self.degrade_factor < 1.0:
            raise ValueError("degrade_factor must be in [0, 1)")
        if not 1.0 <= self.straggler_factor < math.inf:
            raise ValueError("straggler_factor must be finite and >= 1")
        if not 0.0 < self.fault_duration < math.inf:
            raise ValueError("fault_duration must be finite and positive")
        if self.seed is None and (any(r > 0 for r in rates)):
            raise ValueError(
                "rate-based fault generation needs an explicit seed"
            )

    # -- queries --------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan can never inject anything."""
        return (
            not self.schedule
            and self.pull_fail_count == 0
            and self.link_degrade_rate == 0
            and self.link_partition_rate == 0
            and self.crash_rate == 0
            and self.straggler_rate == 0
        )

    # -- compilation ----------------------------------------------------------
    def compile(self, n_nodes: int) -> tuple[FaultEvent, ...]:
        """Expand the plan into concrete events for an allocation.

        Pure in ``(self, n_nodes)``: the generated part draws every time
        and node target from one ``random.Random(f"{seed}:{n_nodes}")``
        stream in a fixed kind order, so the timeline is bit-identical
        across reruns, processes and worker counts.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        events = list(self.schedule)
        for _ in range(self.pull_fail_count):
            events.append(
                FaultEvent(0.0, FaultKind.PULL_FAIL, factor=0.5,
                           duration=self.tolerance.detect_timeout)
            )
        if self.seed is not None:
            rng = random.Random(f"faults:{self.seed}:{n_nodes}")
            generated: list[tuple[FaultKind, float, float]] = (
                [(FaultKind.LINK_DEGRADE, self.link_degrade_rate,
                  self.degrade_factor),
                 (FaultKind.LINK_PARTITION, self.link_partition_rate, 0.0),
                 (FaultKind.NODE_CRASH, self.crash_rate, 1.0),
                 (FaultKind.STRAGGLER, self.straggler_rate,
                  self.straggler_factor)]
            )
            for kind, rate, factor in generated:
                count = int(round(rate * self.horizon))
                for i in range(count):
                    # Stratified times: one uniform draw per equal slice
                    # of the horizon, so growing the rate adds *coverage*
                    # instead of clustering draws by chance.
                    t = rng.uniform(
                        self.horizon * i / count,
                        self.horizon * (i + 1) / count,
                    )
                    node = rng.randrange(n_nodes)
                    duration = (
                        0.0 if kind is FaultKind.NODE_CRASH
                        else self.fault_duration
                    )
                    events.append(
                        FaultEvent(t, kind, node=node, duration=duration,
                                   factor=factor)
                    )
        events.sort(key=lambda e: (e.time, e.kind.value, e.node))
        return tuple(events)

    # -- serialisation --------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "schedule": [e.to_json_dict() for e in self.schedule],
            "seed": self.seed,
            "horizon": self.horizon,
            "link_degrade_rate": self.link_degrade_rate,
            "link_partition_rate": self.link_partition_rate,
            "crash_rate": self.crash_rate,
            "straggler_rate": self.straggler_rate,
            "pull_fail_count": self.pull_fail_count,
            "degrade_factor": self.degrade_factor,
            "straggler_factor": self.straggler_factor,
            "fault_duration": self.fault_duration,
            "tolerance": self.tolerance.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultPlan":
        kwargs = dict(payload)
        kwargs["schedule"] = tuple(
            FaultEvent.from_json_dict(e) for e in payload.get("schedule", ())
        )
        kwargs["tolerance"] = Tolerance.from_json_dict(
            payload.get("tolerance", {})
        )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in kwargs.items() if k in known})

    @classmethod
    def parse_spec(cls, text: str) -> "FaultPlan":
        """Build a plan from a compact ``key=value[,key=value...]`` string.

        Recognised keys mirror the dataclass fields with short aliases:
        ``seed``, ``horizon``, ``link_rate`` (degrade), ``partition_rate``,
        ``crash_rate``, ``straggler_rate``, ``pull_fails``, ``factor``
        (degrade factor), ``straggler_factor``, ``duration``, plus the
        tolerance knobs ``max_requeues`` and ``pull_retries``.  Example::

            seed=42,link_rate=0.5,factor=0.2,duration=1.5,horizon=20
        """
        aliases = {
            "link_rate": "link_degrade_rate",
            "partition_rate": "link_partition_rate",
            "pull_fails": "pull_fail_count",
            "factor": "degrade_factor",
            "duration": "fault_duration",
        }
        tolerance_aliases = {
            "max_requeues": "max_requeues",
            "pull_retries": "pull_max_retries",
            "detect_timeout": "detect_timeout",
            "requeue_backoff": "requeue_backoff",
        }
        plan_kwargs: dict = {}
        tol_kwargs: dict = {}
        int_fields = {"seed", "pull_fail_count", "max_requeues",
                      "pull_max_retries"}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault-plan item {item!r} "
                                 f"(expected key=value)")
            key, _, value = item.partition("=")
            key = key.strip()
            target = aliases.get(key, key)
            if key in tolerance_aliases:
                target = tolerance_aliases[key]
                tol_kwargs[target] = (
                    int(value) if target in int_fields else float(value)
                )
                continue
            if target not in {f.name for f in fields(cls)}:
                raise ValueError(f"unknown fault-plan key {key!r}")
            plan_kwargs[target] = (
                int(value) if target in int_fields else float(value)
            )
        if tol_kwargs:
            plan_kwargs["tolerance"] = Tolerance(**tol_kwargs)
        return cls(**plan_kwargs)

    @classmethod
    def load(cls, source: Union[str, Path]) -> "FaultPlan":
        """Load a plan from a JSON file path or a ``key=value`` spec."""
        path = Path(source)
        try:
            exists = path.is_file()
        except OSError:  # e.g. name too long for the filesystem
            exists = False
        if exists:
            return cls.from_json_dict(json.loads(path.read_text()))
        return cls.parse_spec(str(source))

    def with_tolerance(self, **kwargs) -> "FaultPlan":
        """A copy with selected tolerance knobs replaced."""
        return replace(self, tolerance=replace(self.tolerance, **kwargs))
