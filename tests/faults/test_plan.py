"""FaultPlan: validation, deterministic compilation, serialisation."""

import json
import math

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan, Tolerance


def seeded_plan(**kwargs):
    defaults = dict(seed=7, link_degrade_rate=0.5, horizon=20.0,
                    degrade_factor=0.25, fault_duration=1.0)
    defaults.update(kwargs)
    return FaultPlan(**defaults)


# -- validation ---------------------------------------------------------------
def test_rates_require_a_seed():
    with pytest.raises(ValueError, match="seed"):
        FaultPlan(link_degrade_rate=1.0)


def test_negative_rate_rejected():
    with pytest.raises(ValueError, match="rates"):
        FaultPlan(seed=1, crash_rate=-0.5)


def test_degrade_factor_must_be_below_one():
    with pytest.raises(ValueError, match="degrade_factor"):
        FaultPlan(seed=1, degrade_factor=1.0)


def test_straggler_event_factor_is_a_slowdown():
    with pytest.raises(ValueError, match="straggler"):
        FaultEvent(1.0, FaultKind.STRAGGLER, node=0, duration=1.0, factor=0.5)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", [
    "horizon", "link_degrade_rate", "link_partition_rate", "crash_rate",
    "straggler_rate", "degrade_factor", "straggler_factor", "fault_duration",
])
def test_non_finite_plan_fields_rejected(field, value):
    with pytest.raises(ValueError, match="must be"):
        FaultPlan(seed=1, **{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["time", "duration", "factor"])
@pytest.mark.parametrize("kind, factor", [
    (FaultKind.LINK_DEGRADE, 0.5), (FaultKind.STRAGGLER, 2.0),
])
def test_non_finite_event_fields_rejected(kind, factor, field, value):
    valid = dict(time=1.0, node=0, duration=1.0, factor=factor)
    FaultEvent(kind=kind, **valid)  # the valid event is accepted
    with pytest.raises(ValueError, match="must be"):
        FaultEvent(kind=kind, **{**valid, field: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", [
    "detect_timeout", "requeue_backoff", "pull_backoff",
    "pull_backoff_factor",
])
def test_non_finite_tolerance_fields_rejected(field, value):
    with pytest.raises(ValueError, match="must be"):
        Tolerance(**{field: value})


def test_non_finite_spec_values_rejected_at_parse():
    """The CLI's ``--fault-plan`` string parses through the same checks."""
    for spec in ("seed=1,link_rate=nan,horizon=0.3",
                 "seed=1,link_rate=inf,horizon=0.3",
                 "seed=1,straggler_factor=nan",
                 "seed=1,duration=inf"):
        with pytest.raises(ValueError, match="must be"):
            FaultPlan.load(spec)


def test_is_empty():
    assert FaultPlan().is_empty
    assert not seeded_plan().is_empty
    assert not FaultPlan(pull_fail_count=1).is_empty
    assert not FaultPlan(
        schedule=(FaultEvent(1.0, FaultKind.NODE_CRASH, node=0),)
    ).is_empty


# -- compilation --------------------------------------------------------------
def test_compile_is_deterministic_across_instances():
    a = seeded_plan().compile(4)
    b = seeded_plan().compile(4)
    assert a == b and len(a) == 10  # 0.5/s x 20 s


def test_compile_depends_on_node_count():
    plan = seeded_plan()
    assert plan.compile(4) != plan.compile(8)


def test_compile_times_are_stratified_over_the_horizon():
    """rate x horizon events, one per equal slice of [0, horizon)."""
    plan = seeded_plan(link_degrade_rate=0.8, horizon=10.0)
    events = plan.compile(4)
    count = 8
    assert len(events) == count
    for i, e in enumerate(sorted(events, key=lambda e: e.time)):
        lo, hi = 10.0 * i / count, 10.0 * (i + 1) / count
        assert lo <= e.time <= hi
        assert e.kind is FaultKind.LINK_DEGRADE
        assert 0 <= e.node < 4
        assert e.factor == plan.degrade_factor
        assert e.duration == plan.fault_duration


def test_compile_passes_explicit_schedule_through_sorted():
    late = FaultEvent(9.0, FaultKind.NODE_CRASH, node=1)
    early = FaultEvent(2.0, FaultKind.STRAGGLER, node=0, duration=3.0,
                       factor=2.0)
    plan = FaultPlan(schedule=(late, early))
    assert plan.compile(2) == (early, late)


def test_pull_fail_count_compiles_to_pull_events():
    events = FaultPlan(pull_fail_count=3).compile(1)
    assert len(events) == 3
    assert all(e.kind is FaultKind.PULL_FAIL for e in events)


# -- serialisation ------------------------------------------------------------
def test_json_round_trip():
    plan = seeded_plan(
        schedule=(FaultEvent(1.5, FaultKind.LINK_PARTITION, node=2,
                             duration=0.5),),
        tolerance=Tolerance(max_requeues=5, requeue_backoff=0.1),
    )
    assert FaultPlan.from_json_dict(plan.to_json_dict()) == plan


def test_json_round_trip_survives_a_real_json_encoder():
    plan = seeded_plan(pull_fail_count=2)
    blob = json.dumps(plan.to_json_dict())
    assert FaultPlan.from_json_dict(json.loads(blob)) == plan


def test_parse_spec_aliases():
    plan = FaultPlan.parse_spec(
        "seed=7,link_rate=2,factor=0.3,duration=1.5,horizon=10,"
        "max_requeues=5"
    )
    assert plan.seed == 7
    assert plan.link_degrade_rate == 2.0
    assert plan.degrade_factor == 0.3
    assert plan.fault_duration == 1.5
    assert plan.horizon == 10.0
    assert plan.tolerance.max_requeues == 5


def test_parse_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.parse_spec("seed=1,bogus=2")
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.parse_spec("justakey")


def test_load_from_file_and_from_spec(tmp_path):
    plan = seeded_plan()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_json_dict()))
    assert FaultPlan.load(path) == plan
    assert FaultPlan.load(str(path)) == plan
    inline = FaultPlan.load("seed=7,link_rate=0.5,horizon=20,factor=0.25,"
                            "duration=1")
    assert inline == plan


def test_with_tolerance_replaces_only_named_knobs():
    plan = seeded_plan()
    tweaked = plan.with_tolerance(max_requeues=9)
    assert tweaked.tolerance.max_requeues == 9
    assert tweaked.tolerance.detect_timeout == plan.tolerance.detect_timeout
    assert tweaked.seed == plan.seed


def test_tolerance_backoffs_double_per_attempt():
    tol = Tolerance(requeue_backoff=0.5, pull_backoff=0.25,
                    pull_backoff_factor=2.0)
    assert tol.requeue_delay(1) == 0.5
    assert tol.requeue_delay(3) == 2.0
    assert tol.pull_delay(1) == 0.25
    assert tol.pull_delay(3) == 1.0
