"""Determinism and shape of the zipfian load generator.

Two layers of evidence, mirroring ``tests/obs/test_determinism.py``:

- in-process: the same seed yields the same request sequence and the
  same scoreboard digest on every call, different seeds diverge, and
  the digest ignores wall-clock fields entirely;
- cross-process: sequence and digest survive ``PYTHONHASHSEED``
  variation — nothing in the generator or the scoreboard leaks dict/set
  iteration order.

Plus distribution sanity (zipf head-heaviness, uniform at s=0) and the
universe builders' contracts (distinct keys, equal cost, balance).
"""

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.exec import spec_key
from repro.serve import (
    ChaosOp,
    ChaosPlan,
    Overloaded,
    ShardRouter,
    ZipfianMix,
    balanced_universe,
    default_universe,
    run_load,
    scoreboard,
    zipfian_sequence,
)
from repro.serve.loadgen import LoadReport

SRC_ROOT = Path(repro.__file__).resolve().parents[1]


# ------------------------------ the sequence ---------------------------------


def test_same_seed_same_sequence():
    a = zipfian_sequence(16, 200, s=1.1, seed=42)
    b = zipfian_sequence(16, 200, s=1.1, seed=42)
    assert a == b
    assert len(a) == 200
    assert all(0 <= i < 16 for i in a)


def test_different_seeds_diverge():
    assert zipfian_sequence(16, 200, seed=1) != zipfian_sequence(
        16, 200, seed=2
    )


def test_zipf_is_head_heavy_and_s0_is_uniform():
    head = Counter(zipfian_sequence(10, 5000, s=1.5, seed=0))
    assert head[0] > head.get(9, 0) * 3  # item 0 dominates the tail
    flat = Counter(zipfian_sequence(10, 5000, s=0.0, seed=0))
    assert max(flat.values()) < 2 * min(flat.values())


def test_sequence_validation():
    with pytest.raises(ValueError):
        zipfian_sequence(0, 10)
    with pytest.raises(ValueError):
        zipfian_sequence(4, -1)
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            zipfian_sequence(4, 10, s=bad)
    assert zipfian_sequence(4, 0) == []


# ---------------------------- the universes ----------------------------------


def test_default_universe_distinct_keys_equal_cost():
    universe = default_universe(12, fig="fig3", nodes=4)
    keys = [spec_key(s) for s in universe]
    assert len(set(keys)) == 12  # all distinct
    names = [s.name for s in universe]
    assert len(set(names)) == 12
    cells = [s.workmodel.n_cells for s in universe]
    assert max(cells) - min(cells) == 11  # one-cell nudges only
    with pytest.raises(ValueError):
        default_universe(0)


def test_balanced_universe_spreads_evenly():
    router = ShardRouter(4)
    universe = balanced_universe(16, router, fig="fig1", nodes=2)
    counts = Counter(router.shard_for(spec_key(s)) for s in universe)
    assert sorted(counts.values()) == [4, 4, 4, 4]
    assert len({spec_key(s) for s in universe}) == 16


def test_universes_are_workload_parameterized():
    from repro.workloads import StencilWorkModel

    universe = default_universe(6, fig="fig1", nodes=2, workload="stencil")
    assert len({spec_key(s) for s in universe}) == 6
    for spec in universe:
        assert spec.workload == "stencil"
        assert isinstance(spec.workmodel, StencilWorkModel)
        assert spec.name.startswith("serve-fig1-stencil-")
    with pytest.raises(KeyError, match="registered"):
        default_universe(2, workload="no-such-workload")


def test_same_geometry_different_workloads_never_collide():
    """The latent collision the workload field fixes: two universes
    sharing nodes/fig/variant indices must still mint distinct keys."""
    alya = default_universe(4, fig="fig1", nodes=2)
    stencil = default_universe(4, fig="fig1", nodes=2, workload="stencil")
    keys = [spec_key(s) for s in alya + stencil]
    assert len(set(keys)) == 8


def test_ensure_distinct_keys_is_loud_on_collision():
    from repro.serve.loadgen import ensure_distinct_keys

    universe = default_universe(3, fig="fig1", nodes=2)
    ensure_distinct_keys(universe)  # distinct: fine
    twin = dataclasses.replace(universe[0], name="same-physics-other-name")
    with pytest.raises(ValueError, match="universe key collision"):
        ensure_distinct_keys(universe + [twin])


# ---------------------------- the scoreboard ---------------------------------


def _mix():
    return ZipfianMix.build(
        default_universe(6, fig="fig3", nodes=4),
        n_requests=30, s=1.1, seed=7,
    )


def _report(mix, elapsed=1.0):
    """A synthetic replay outcome (payloads stand in for responses)."""
    report = LoadReport(mix=mix)
    report.payloads = [f"payload-for-item-{i}" for i in mix.sequence]
    report.latencies = [0.01] * mix.n_requests
    report.elapsed_s = elapsed
    return report


def test_scoreboard_digest_is_reproducible_and_ignores_wallclock():
    mix = _mix()
    fast = scoreboard(_report(mix, elapsed=0.5), executed=6)
    slow = scoreboard(_report(mix, elapsed=50.0), executed=6)
    assert fast["digest"] == slow["digest"]  # wall-clock is not hashed
    assert fast["throughput_rps"] != slow["throughput_rps"]
    assert fast["dedupe"] == 30 - 6
    assert fast["distinct_requested"] == mix.distinct_requested()


def test_scoreboard_digest_covers_responses_not_execution_counts():
    mix = _mix()
    base = scoreboard(_report(mix), executed=6)
    tampered = _report(mix)
    tampered.payloads[3] = "a-different-response"
    assert scoreboard(tampered, executed=6)["digest"] != base["digest"]
    errored = _report(mix)
    errored.errors = 1
    assert scoreboard(errored, executed=6)["digest"] != base["digest"]
    # Execution counts are reported but deliberately NOT hashed: a
    # worker killed between its cache write and its reply shifts
    # `executed` by one without changing any response byte, and the
    # chaos gate compares digests across exactly that divide.  Dedupe
    # exactness is asserted directly by callers instead.
    shifted = scoreboard(_report(mix), executed=5)
    assert shifted["digest"] == base["digest"]
    assert shifted["executed"] == 5 and base["executed"] == 6


def test_scoreboard_balance_view():
    board = scoreboard(_report(_mix()), executed=6, per_shard=[10, 20])
    assert board["requests_by_shard"] == [10, 20]
    assert board["balance_ratio"] == 2.0
    starved = scoreboard(_report(_mix()), executed=6, per_shard=[0, 30])
    assert starved["balance_ratio"] is None  # strict JSON: null, not inf


# ----------------------------- retry backoff ---------------------------------


class _FakeResult:
    def __init__(self, name):
        self.name = name

    def to_json_dict(self):
        return {"name": self.name}


class _FlakyTarget:
    """Rejects each spec's first ``rejections`` submits, then serves it."""

    def __init__(self, rejections, retry_after=0.01):
        self.rejections = rejections
        self.retry_after = retry_after
        self.calls = Counter()

    async def submit(self, spec):
        self.calls[spec.name] += 1
        if self.calls[spec.name] <= self.rejections:
            raise Overloaded(pending=5, retry_after=self.retry_after)
        return _FakeResult(spec.name)


def _sleep_recorder(monkeypatch):
    """Make run_load's backoff sleeps instantaneous but recorded."""
    recorded = []
    real_sleep = asyncio.sleep

    async def fake_sleep(delay):
        recorded.append(delay)
        await real_sleep(0)

    monkeypatch.setattr(asyncio, "sleep", fake_sleep)
    return recorded


def _tiny_mix(seed=3):
    return ZipfianMix.build(
        default_universe(4, fig="fig3", nodes=4),
        n_requests=8, s=1.1, seed=seed,
    )


def test_retry_backoff_is_jittered_capped_and_seed_deterministic(
    monkeypatch,
):
    def one_run(seed):
        sleeps = _sleep_recorder(monkeypatch)
        report = asyncio.run(
            run_load(
                _FlakyTarget(rejections=3),
                _tiny_mix(seed=seed),
                concurrency=1,  # sequential => deterministic sleep order
                retry_cap=0.5,
            )
        )
        return report, list(sleeps)

    report_a, sleeps_a = one_run(seed=3)
    report_b, sleeps_b = one_run(seed=3)
    report_c, sleeps_c = one_run(seed=4)
    assert report_a.errors == 0 and report_a.retries == len(sleeps_a) > 0
    # Same mix seed: the exact same backoff schedule, run after run.
    assert sleeps_a == sleeps_b
    # Different seed: a different (decorrelated) schedule.
    assert sleeps_a != sleeps_c
    # Jitter spreads sleeps instead of lock-stepping them on the hint...
    assert len(set(sleeps_a)) > 1
    # ...within [retry_after, cap].
    assert all(0.01 <= s <= 0.5 for s in sleeps_a)


def test_retry_ceiling_is_configurable_and_reported(monkeypatch):
    _sleep_recorder(monkeypatch)
    mix = _tiny_mix()
    report = asyncio.run(
        run_load(
            _FlakyTarget(rejections=10 ** 9, retry_after=0.02),
            mix,
            concurrency=1,
            max_retries=2,
        )
    )
    assert report.payloads == ["ERROR:Overloaded"] * mix.n_requests
    assert report.errors == mix.n_requests
    assert report.overload_exhausted == mix.n_requests
    assert report.last_retry_after == 0.02  # the hint the operator needs
    assert report.retries == 2 * mix.n_requests  # ceiling respected


def test_max_retries_zero_fails_on_first_rejection(monkeypatch):
    sleeps = _sleep_recorder(monkeypatch)
    report = asyncio.run(
        run_load(
            _FlakyTarget(rejections=10 ** 9), _tiny_mix(),
            concurrency=1, max_retries=0,
        )
    )
    assert report.retries == 0 and sleeps == []  # no sleep on the way out
    assert report.overload_exhausted == report.mix.n_requests
    with pytest.raises(ValueError):
        asyncio.run(
            run_load(_FlakyTarget(0), _tiny_mix(), max_retries=-1)
        )


@pytest.mark.parametrize(
    "bad", [0.0, float("nan"), float("inf"), float("-inf")]
)
def test_retry_cap_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="retry_cap"):
        asyncio.run(run_load(_FlakyTarget(0), _tiny_mix(), retry_cap=bad))


# ------------------------------- chaos plans ---------------------------------


def test_chaos_plan_is_seeded_and_mid_replay():
    a = ChaosPlan.build(n_shards=4, n_requests=100, kills=2, wedges=1, seed=9)
    b = ChaosPlan.build(n_shards=4, n_requests=100, kills=2, wedges=1, seed=9)
    c = ChaosPlan.build(n_shards=4, n_requests=100, kills=2, wedges=1, seed=10)
    assert a == b
    assert a != c
    assert len(a.ops) == 3
    assert sorted(op.kind for op in a.ops) == ["kill", "kill", "wedge"]
    # Distinct victims, triggers inside the middle half of the replay.
    assert len({op.shard for op in a.ops}) == 3
    assert all(25 <= op.at_request < 75 for op in a.ops)


def test_chaos_plan_validation():
    with pytest.raises(ValueError, match="at most one fault per shard"):
        ChaosPlan.build(n_shards=2, n_requests=100, kills=2, wedges=1)
    with pytest.raises(ValueError):
        ChaosPlan.build(n_shards=2, n_requests=100, kills=-1)
    with pytest.raises(ValueError, match="at least 4 requests"):
        ChaosPlan.build(n_shards=2, n_requests=2, kills=1)
    # No faults, no constraints.
    assert ChaosPlan.build(n_shards=2, n_requests=0, kills=0).ops == ()


def test_chaos_needs_a_cluster_target():
    plan = ChaosPlan(
        ops=(ChaosOp(kind="kill", shard=0, at_request=1),), seed=0
    )
    with pytest.raises(TypeError, match="kill_worker"):
        asyncio.run(run_load(_FlakyTarget(0), _tiny_mix(), chaos=plan))


def test_chaos_op_beyond_sequence_is_rejected():
    plan = ChaosPlan(
        ops=(ChaosOp(kind="kill", shard=0, at_request=10 ** 6),), seed=0
    )

    class _Chaosable(_FlakyTarget):
        def kill_worker(self, shard):  # pragma: no cover - never reached
            pass

        def wedge_worker(self, shard):  # pragma: no cover - never reached
            pass

    with pytest.raises(ValueError, match="beyond"):
        asyncio.run(
            run_load(_Chaosable(0), _tiny_mix(), chaos=plan)
        )


# --------------------------- cross-process digest ----------------------------

_CHILD = """
import json, sys
from repro.serve import ZipfianMix, default_universe, scoreboard, \\
    zipfian_sequence
from repro.serve.loadgen import LoadReport

mix = ZipfianMix.build(
    default_universe(6, fig="fig3", nodes=4), n_requests=30, s=1.1, seed=7
)
report = LoadReport(mix=mix)
report.payloads = [f"payload-for-item-{i}" for i in mix.sequence]
report.latencies = [0.01] * mix.n_requests
report.elapsed_s = 1.0
board = scoreboard(report, executed=6)
json.dump(
    {"sequence": list(mix.sequence), "digest": board["digest"]}, sys.stdout
)
"""


def _board_with_hashseed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC_ROOT)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


def test_sequence_and_digest_survive_hashseed_variation():
    a = _board_with_hashseed("0")
    b = _board_with_hashseed("12345")
    assert a["sequence"] == b["sequence"]
    assert a["digest"] == b["digest"]
    # And the parent process (whatever its own hash seed) agrees too.
    mix = _mix()
    assert list(mix.sequence) == a["sequence"]
    assert scoreboard(_report(mix), executed=6)["digest"] == a["digest"]
