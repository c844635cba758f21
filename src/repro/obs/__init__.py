"""Observability: spans, metrics, and deterministic trace exports.

The subsystem has three layers:

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments that
  components register into instead of keeping ad-hoc totals;
- :mod:`repro.obs.span` — a :class:`SpanTracer` recording finished,
  per-track :class:`Span` intervals (image build, deploy steps, launch,
  per-timestep solver phases), layered over the flat
  :class:`repro.des.trace.Tracer` records;
- :mod:`repro.obs.export` — Chrome-trace JSON (loadable in
  ``chrome://tracing`` / Perfetto), flat metric dumps, and a canonical
  SHA-256 **trace digest** that turns "same spec ⇒ identical simulation"
  into a one-line assertion.

:class:`Observability` bundles the three and is what the pipeline
threads through itself (``ExperimentRunner.run(spec, obs=...)``).
Everything is opt-in: with ``obs=None`` the instrumented code paths
reduce to a single ``is not None`` check.
"""

from repro.obs.export import (
    canonical_payload,
    chrome_trace,
    metrics_csv,
    metrics_dump,
    trace_digest,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import Observability, Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanTracer",
    "canonical_payload",
    "chrome_trace",
    "metrics_csv",
    "metrics_dump",
    "trace_digest",
    "write_chrome_trace",
]
