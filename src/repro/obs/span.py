"""Span tracing and the :class:`Observability` facade.

A :class:`Span` is a named interval of simulated time on a *track*
(driver, a node, a rank...), recorded once it has finished: a deploy
step on ``node-3``, a solver phase on ``ep-7``.  Tracks, not nesting,
group them; every span is a root (``parent_id`` 0).

The facade carries a plain record :class:`~repro.des.trace.Tracer`
alongside the span tracer for the point events (``mpi.send``,
``mpi.collective``...) components already emit.

Like the base tracer, the span tracer has a hard record limit with
explicit drop accounting — overflow never silently skews a dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.des.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment
    from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class Span:
    """One completed, named interval on a track."""

    span_id: int
    #: Always 0 (a root span); kept so exported traces and their
    #: digests keep their shape.
    parent_id: int
    name: str
    category: str
    track: str
    start: float
    end: float
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Collects finished :class:`Span`\\ s.

    Parameters
    ----------
    limit:
        Hard cap on stored spans; overflow increments :attr:`dropped`
        (and :attr:`dropped_by_category`) instead of growing the list.
    """

    def __init__(self, limit: int = 200_000) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._limit = limit
        self.spans: list[Span] = []
        self.dropped = 0
        self.dropped_by_category: dict[str, int] = {}
        self._next_id = 1

    # -- recording ----------------------------------------------------------
    def add(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        track: str = "driver",
        **attrs: Any,
    ) -> Optional[Span]:
        """Record an already-finished span."""
        sid = self._next_id
        self._next_id += 1
        return self._store(
            Span(sid, 0, name, category, track, start, end, attrs)
        )

    def _store(self, span: Span) -> Optional[Span]:
        if span.end < span.start:
            raise ValueError(
                f"span {span.name!r} ends ({span.end}) before it starts "
                f"({span.start})"
            )
        if len(self.spans) >= self._limit:
            self.dropped += 1
            self.dropped_by_category[span.category] = (
                self.dropped_by_category.get(span.category, 0) + 1
            )
            return None
        self.spans.append(span)
        return span

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    @property
    def total_seen(self) -> int:
        """Spans offered to the tracer: stored + dropped."""
        return len(self.spans) + self.dropped

    def tracks(self) -> list[str]:
        """Track names with at least one stored span, sorted."""
        return sorted({s.track for s in self.spans})

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    # -- merging ------------------------------------------------------------
    def merge(self, other: "SpanTracer") -> None:
        """Fold another tracer's completed spans in.

        Preserves counts: this tracer's ``total_seen`` grows by exactly
        ``other.total_seen`` (overflow past the limit lands in
        :attr:`dropped`).
        """
        for s in other.spans:
            self._store(s)
        self.dropped += other.dropped
        for cat, n in sorted(other.dropped_by_category.items()):
            self.dropped_by_category[cat] = (
                self.dropped_by_category.get(cat, 0) + n
            )
        self.spans.sort(key=lambda s: (s.start, s.end, s.track, s.span_id))


class Observability:
    """Span tracer + record tracer + metrics, threaded through a run.

    Parameters
    ----------
    env:
        The simulation environment (may be bound later via :meth:`bind` —
        the runner does this, since it creates the environment itself).
    """

    def __init__(self, env: Optional["Environment"] = None) -> None:
        self.env = env
        self.spans = SpanTracer()
        self.records = Tracer()
        from repro.obs.metrics import MetricsRegistry

        self.metrics: "MetricsRegistry" = MetricsRegistry()

    def bind(self, env: "Environment") -> None:
        """Attach to ``env`` and install an event-loop hook counting
        processed events and sampling queue depth (see
        ``Environment.set_step_hook``)."""
        self.env = env
        events = self.metrics.counter("des.events_processed")
        depth = self.metrics.gauge("des.queue_depth")
        # The hook runs once per processed event — the hottest callback in
        # an instrumented run.  Counter.inc/Gauge.set are inlined (their
        # validation never triggers for these inputs), and the queue/ring
        # containers are bound once: the engine mutates them in place and
        # never rebinds.
        wheel = env._wheel
        ring = env._ring

        def hook(event: Any, when: float) -> None:
            events.value += 1
            d = len(wheel) + len(ring)
            depth.value = d
            if depth.min is None or d < depth.min:
                depth.min = d
            if depth.max is None or d > depth.max:
                depth.max = d

        env.set_step_hook(hook)

    def _require_env(self) -> "Environment":
        if self.env is None:
            raise RuntimeError(
                "Observability is not bound to an Environment yet"
            )
        return self.env

    def add_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        track: str = "driver",
        **attrs: Any,
    ) -> Optional[Span]:
        """Record an already-timed span."""
        return self.spans.add(name, category, start, end, track, **attrs)

    def event(self, category: str, label: str, **data: Any) -> None:
        """Point event at the current simulated time (record tracer)."""
        env = self._require_env()
        self.records.record(env.now, category, label, **data)

    def merge(self, other: "Observability") -> None:
        """Fold another run's spans, records and metrics in."""
        self.spans.merge(other.spans)
        self.records.merge(other.records)
        self.metrics.merge(other.metrics)

    def drop_stats(self) -> dict:
        """Explicit overflow accounting for dumps — dropped data must be
        visible, not silently missing from totals."""
        return {
            "spans_stored": len(self.spans),
            "spans_dropped": self.spans.dropped,
            "spans_dropped_by_category": dict(
                sorted(self.spans.dropped_by_category.items())
            ),
            "records_stored": len(self.records),
            "records_dropped": self.records.dropped,
            "records_dropped_by_category": dict(
                sorted(self.records.dropped_by_category.items())
            ),
        }
