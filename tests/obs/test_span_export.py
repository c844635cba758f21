"""Span tracer semantics and the exporters built on top of it."""

import json

import pytest

from repro.containers.recipes import BuildTechnique
from repro.core import calibration
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.des import Environment, FairShareLink
from repro.hardware import catalog
from repro.obs import (
    Observability,
    SpanTracer,
    chrome_trace,
    metrics_csv,
    metrics_dump,
    trace_digest,
    write_chrome_trace,
)


# -- span tracer --------------------------------------------------------------
def test_nesting_parents_within_track():
    tr = SpanTracer()
    outer = tr.begin("outer", "phase", 0.0, track="t")
    inner = tr.begin("inner", "phase", 1.0, track="t")
    leaf = tr.add("leaf", "phase", 1.5, 1.6, track="t")
    tr.end(inner, 2.0)
    tr.end(outer, 3.0)
    spans = {s.name: s for s in tr.spans}
    assert spans["leaf"].parent_id == inner
    assert spans["inner"].parent_id == outer
    assert spans["outer"].parent_id == 0
    assert [s.name for s in tr.children_of(inner)] == ["leaf"]
    assert tr.open_count() == 0


def test_tracks_are_independent():
    tr = SpanTracer()
    a = tr.begin("a", "x", 0.0, track="t1")
    b = tr.add("b", "x", 0.0, 1.0, track="t2")
    assert b.parent_id == 0  # t1's open span is not t2's parent
    tr.end(a, 1.0)
    assert tr.tracks() == ["t1", "t2"]


def test_unbalanced_end_raises():
    tr = SpanTracer()
    outer = tr.begin("outer", "x", 0.0)
    tr.begin("inner", "x", 1.0)
    with pytest.raises(ValueError):
        tr.end(outer, 2.0)  # inner is still open
    with pytest.raises(ValueError):
        tr.end(999, 2.0)  # never opened


def test_span_end_before_start_raises():
    tr = SpanTracer()
    with pytest.raises(ValueError):
        tr.add("bad", "x", 2.0, 1.0)


def test_limit_drops_with_category_accounting():
    tr = SpanTracer(limit=2)
    tr.add("a", "keep", 0.0, 1.0)
    tr.add("b", "keep", 0.0, 1.0)
    tr.add("c", "lost", 0.0, 1.0)
    tr.add("d", "lost", 0.0, 1.0)
    assert len(tr) == 2
    assert tr.dropped == 2
    assert tr.dropped_by_category == {"lost": 2}
    assert tr.total_seen == 4


def test_merge_preserves_total_seen():
    a = SpanTracer(limit=3)
    a.add("a", "x", 5.0, 6.0)
    b = SpanTracer(limit=10)
    b.add("b1", "x", 1.0, 2.0)
    b.add("b2", "y", 3.0, 4.0)
    b.add("b3", "y", 3.0, 4.0)  # will overflow a's limit on merge
    before = a.total_seen
    a.merge(b)
    assert a.total_seen == before + b.total_seen
    assert len(a) == 3
    assert a.dropped == 1
    # merged list re-sorted by start time
    assert [s.name for s in a.spans] == ["b1", "b2", "a"]


def test_span_context_manager_uses_env_clock():
    env = Environment()
    tr = SpanTracer()

    def prog():
        with tr.span(env, "work", "phase"):
            yield env.timeout(2.5)

    env.process(prog())
    env.run()
    (s,) = tr.spans
    assert (s.start, s.end) == (0.0, 2.5)


def test_to_records_pairs_begin_end():
    tr = SpanTracer()
    tr.add("w", "x", 1.0, 3.0, track="t", k=1)
    recs = tr.to_records()
    assert [(r.category, r.time) for r in recs] == [
        ("span.begin", 1.0),
        ("span.end", 3.0),
    ]
    assert recs[0].data["track"] == "t"
    assert recs[0].data["k"] == 1


# -- observability facade ------------------------------------------------------
def test_observability_requires_binding_for_clocked_apis():
    obs = Observability()
    with pytest.raises(RuntimeError):
        obs.event("c", "l")
    with pytest.raises(RuntimeError):
        with obs.span("s"):
            pass


def test_attach_engine_counts_events():
    env = Environment()
    obs = Observability()
    obs.bind(env)

    def prog():
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(prog())
    env.run()
    assert obs.metrics.counter("des.events_processed").value > 0
    assert "des.queue_depth" in obs.metrics



def _gauge_pin(obs: Observability) -> tuple:
    depth = obs.metrics.gauge("des.queue_depth")
    events = obs.metrics.counter("des.events_processed").value
    return depth.min, depth.max, depth.value, events


def test_engine_hook_pins_queue_depth_on_link_sim():
    """Queue depth (future-event list + now-ring, sampled after each pop)
    and the event count of one small fixed simulation.  The values were
    recorded with the previous future-event store, so they also show
    that changing the store left the depth the hook samples unchanged."""
    env = Environment()
    obs = Observability()
    obs.bind(env)
    link = FairShareLink(env, bandwidth=1e6, latency=1e-3)

    def worker(i):
        for _ in range(3):
            yield env.timeout(0.5 * (i % 3))
            yield link.transfer(1000 * (i + 1))
            yield env.timeout(0.0)

    for i in range(6):
        env.process(worker(i))
    env.run()
    assert _gauge_pin(obs) == (0, 5, 0, 108)
    assert env.now == 3.028249999999999


def test_engine_hook_pins_queue_depth_on_docker_run():
    """Same pin through the full pipeline: 2 Lenox nodes x 4 ranks under
    Docker, where the bridge, links and MPI delivery all file events."""
    spec = ExperimentSpec(
        name="queue-depth-pin",
        cluster=catalog.LENOX,
        runtime_name="docker",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=calibration.lenox_cfd_workmodel(),
        n_nodes=2,
        ranks_per_node=4,
        threads_per_rank=1,
        sim_steps=1,
        granularity=EndpointGranularity.RANK,
    )
    obs = Observability()
    ExperimentRunner().run(spec, obs=obs)
    assert _gauge_pin(obs) == (0, 24, 0, 9608)

# -- exporters ----------------------------------------------------------------
def _sample_obs() -> Observability:
    env = Environment()
    obs = Observability(env=env)
    obs.add_span("outer", "phase", 0.0, 4.0, track="driver", label="x")
    obs.add_span("inner", "phase", 1.0, 2.0, track="node-0")
    obs.records.record(0.5, "mpi.send", "0->1", nbytes=10)
    obs.metrics.counter("c").inc(2)
    obs.metrics.gauge("g").set(1.5)
    return obs


def test_chrome_trace_structure():
    ct = chrome_trace(_sample_obs())
    events = ct["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    instant = [e for e in events if e["ph"] == "i"]
    names = {
        e["tid"]: e["args"]["name"]
        for e in meta
        if e["name"] == "thread_name"
    }
    # driver is always tid 1; every span/record tid is named.
    assert names[1] == "driver"
    assert set(names.values()) == {"driver", "node-0", "events"}
    assert len(complete) == 2 and len(instant) == 1
    outer = next(e for e in complete if e["name"] == "outer")
    assert outer["ts"] == 0.0 and outer["dur"] == pytest.approx(4e6)
    assert outer["args"]["label"] == "x"
    assert instant[0]["name"] == "mpi.send:0->1"
    assert all(e["pid"] == 1 for e in events)


def test_write_chrome_trace_round_trips(tmp_path):
    path = write_chrome_trace(tmp_path / "t.json", _sample_obs())
    data = json.loads(path.read_text())
    assert isinstance(data["traceEvents"], list)
    assert data["displayTimeUnit"] == "ms"


def test_metrics_dump_includes_drop_accounting():
    dump = metrics_dump(_sample_obs())
    assert dump["metrics"]["c"]["value"] == 2
    trace = dump["trace"]
    assert trace["spans_stored"] == 2
    assert trace["records_stored"] == 1
    assert trace["spans_dropped"] == 0


def test_metrics_csv_shape():
    csv = metrics_csv(_sample_obs())
    lines = csv.strip().split("\n")
    assert lines[0] == "name,kind,field,value"
    assert "c,counter,value,2" in lines
    assert any(line.startswith("trace,trace,spans_stored,") for line in lines)


def test_digest_stable_and_sensitive():
    a, b = _sample_obs(), _sample_obs()
    assert trace_digest(a) == trace_digest(b)
    b.metrics.counter("c").inc()  # any change must move the digest
    assert trace_digest(a) != trace_digest(b)
    c = _sample_obs()
    c.add_span("extra", "phase", 0.0, 0.0)
    assert trace_digest(a) != trace_digest(c)


def test_digest_covers_drops():
    a, b = _sample_obs(), _sample_obs()
    b.records.dropped += 1  # simulate overflow
    assert trace_digest(a) != trace_digest(b)
