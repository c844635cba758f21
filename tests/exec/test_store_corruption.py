"""Corruption matrix + temp-orphan hygiene for the on-disk outcome store,
in both its roles (result cache, and sweep checkpoint with
``failures=True``).

Contract under test (``docs/parallel.md``): a corrupt cache/checkpoint
entry — *any* corrupt entry, including tampered-but-valid JSON — reads
as a miss ("not checkpointed"), never as a crashed study; and temp files
orphaned by a writer killed between write and atomic replace are swept,
not accumulated forever.
"""

import json
import os

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.exec import tmpfiles
from repro.exec.cache import ResultCache
from repro.exec.failures import FailedPoint
from repro.exec.speckey import spec_key
from repro.hardware import catalog

from .test_cache import hand_made_result


def make_spec(**overrides):
    base = dict(
        name="corruption-test",
        cluster=catalog.LENOX,
        runtime_name="singularity",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=AlyaWorkModel(
            case=CaseKind.CFD, n_cells=300_000, cg_iters_per_step=4,
            nominal_timesteps=15,
        ),
        n_nodes=2,
        ranks_per_node=7,
        threads_per_rank=1,
        sim_steps=1,
        granularity=EndpointGranularity.RANK,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def failed_point(spec):
    return FailedPoint(
        spec_name=spec.name, key=spec_key(spec), error_type="RankFailure",
        error="boom", attempts=2,
    )


#: (label, mutate(entry_payload) -> new file text) corruption matrix.
#: ``result``/``failure`` is the inner payload key of the store's entry.
CORRUPTIONS = [
    ("truncated-json", lambda p, k: json.dumps(p)[: len(json.dumps(p)) // 2]),
    ("not-a-dict", lambda p, k: json.dumps([1, 2, 3])),
    ("format-drift", lambda p, k: json.dumps({**p, "format": 999})),
    # Inner payload replaced by a non-mapping: ``payload["result"][...]``
    # walks a string -> TypeError.
    ("result-not-a-mapping", lambda p, k: json.dumps({**p, k: "gibberish"})),
    # Missing required field -> KeyError.
    (
        "missing-field",
        lambda p, k: json.dumps(
            {**p, k: {f: v for f, v in p[k].items() if f != "spec_name"}}
        ),
    ),
    # ``dict("abc")`` raises ValueError — the gap this PR closes: a
    # wrong-typed phases field used to crash the study instead of
    # reading as a miss.
    (
        "phases-wrong-type",
        lambda p, k: json.dumps({**p, k: {**p[k], "phases": "abc"}}),
    ),
    (
        "phase-fractions-wrong-type",
        lambda p, k: json.dumps(
            {**p, k: {**p[k], "phase_fractions": "bad-enum-ish"}}
        ),
    ),
    # Deployment replaced by a list -> AttributeError/TypeError inside
    # DeploymentReport.from_json_dict.
    (
        "deployment-wrong-type",
        lambda p, k: json.dumps({**p, k: {**p[k], "deployment": [1]}}),
    ),
]


@pytest.mark.parametrize("label,mutate", CORRUPTIONS)
def test_cache_corruption_reads_as_miss(tmp_path, label, mutate):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    path = cache.put(spec, hand_made_result())
    payload = json.loads(path.read_text())
    path.write_text(mutate(payload, "result"))
    assert cache.get(spec) is None, label


@pytest.mark.parametrize("label,mutate", CORRUPTIONS)
def test_checkpoint_corruption_reads_as_not_checkpointed(
    tmp_path, label, mutate
):
    ckpt = ResultCache(tmp_path, failures=True)
    spec = make_spec()
    path = ckpt.put(spec, hand_made_result())
    payload = json.loads(path.read_text())
    path.write_text(mutate(payload, "result"))
    assert ckpt.get(spec) is None, label


def test_checkpoint_failed_entry_corruption_reads_as_not_checkpointed(
    tmp_path,
):
    ckpt = ResultCache(tmp_path, failures=True)
    spec = make_spec()
    path = ckpt.put(spec, failed_point(spec))
    assert ckpt.get(spec) is not None
    payload = json.loads(path.read_text())
    payload["failure"] = "not-a-mapping"
    path.write_text(json.dumps(payload))
    assert ckpt.get(spec) is None


def test_intact_entries_still_round_trip(tmp_path):
    """The broadened except clauses must not turn real hits into misses."""
    cache = ResultCache(tmp_path / "c")
    spec = make_spec()
    cache.put(spec, hand_made_result())
    assert cache.get(spec) is not None
    ckpt = ResultCache(tmp_path / "k", failures=True)
    ckpt.put(spec, hand_made_result())
    assert ckpt.get(spec) is not None


def test_only_the_checkpoint_role_replays_a_failed_entry(tmp_path):
    """One entry file, two readers: the checkpoint replays the failure,
    the result cache reads it as a miss (a failure is always retried)."""
    spec = make_spec()
    ResultCache(tmp_path, failures=True).put(spec, failed_point(spec))
    assert ResultCache(tmp_path).get(spec) is None
    replayed = ResultCache(tmp_path, failures=True).get(spec)
    assert replayed == failed_point(spec)


def test_entries_of_the_previous_layouts_read_as_misses(tmp_path):
    """After an upgrade, format-1 cache entries and ``point-<key>.json``
    checkpoints are misses in both roles, never wrong data."""
    spec = make_spec()
    key = spec_key(spec)
    result = hand_made_result().to_json_dict()
    (tmp_path / f"{key}.json").write_text(
        json.dumps({"format": 1, "key": key, "result": result})
    )
    (tmp_path / f"point-{key}.json").write_text(json.dumps({
        "format": 1, "key": key, "spec_name": spec.name, "status": "ok",
        "result": result,
    }))
    assert ResultCache(tmp_path).get(spec) is None
    assert ResultCache(tmp_path, failures=True).get(spec) is None


# -- temp-file hygiene -------------------------------------------------------

#: A pid that cannot be live: above any realistic pid_max (2**22 on
#: Linux), so ``os.kill(pid, 0)`` raises.
DEAD_PID = 2**30


def _orphan(root, name):
    root.mkdir(parents=True, exist_ok=True)
    path = root / name
    path.write_text("{half-written")
    return path


def test_cache_clear_removes_tmp_orphans(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(make_spec(), hand_made_result())
    dead = _orphan(tmp_path, f"deadbeef.tmp.{DEAD_PID}")
    live = _orphan(tmp_path, f"cafef00d.tmp.{os.getpid()}")
    # clear() is an explicit wipe: entries AND every temp file go.
    assert cache.clear() == 3
    assert not dead.exists() and not live.exists()
    assert len(cache) == 0


def test_cache_put_sweeps_stale_tmp_but_keeps_live_writers(tmp_path):
    dead = _orphan(tmp_path, f"deadbeef.tmp.{DEAD_PID}")
    unparseable = _orphan(tmp_path, "deadbeef.tmp.notapid")
    own = _orphan(tmp_path, f"cafef00d.tmp.{os.getpid()}")
    cache = ResultCache(tmp_path)
    cache.put(make_spec(), hand_made_result())
    assert not dead.exists(), "orphan of a dead writer must be swept"
    assert not unparseable.exists(), "unparseable pid suffix is stale"
    assert own.exists(), "own-pid temp may be a concurrent write"


def test_checkpoint_store_sweeps_stale_tmp(tmp_path):
    dead = _orphan(tmp_path, f"deadbeef.tmp.{DEAD_PID}")
    ckpt = ResultCache(tmp_path, failures=True)
    spec = make_spec()
    ckpt.put(spec, failed_point(spec))
    assert not dead.exists()
    assert ckpt.get(spec) is not None


def test_checkpoint_clear_removes_entries_and_orphans(tmp_path):
    ckpt = ResultCache(tmp_path, failures=True)
    spec = make_spec()
    ckpt.put(spec, failed_point(spec))
    _orphan(tmp_path, f"deadbeef.tmp.{DEAD_PID}")
    assert ckpt.clear() == 2
    assert len(ckpt) == 0
    assert tmpfiles.iter_tmp_files(tmp_path) == []


def test_stale_detection_spares_current_process(tmp_path):
    own = _orphan(tmp_path, f"k.tmp.{os.getpid()}")
    dead = _orphan(tmp_path, f"k.tmp.{DEAD_PID}")
    assert not tmpfiles.is_stale(own)
    assert tmpfiles.is_stale(dead)
    assert tmpfiles.sweep_stale(tmp_path) == 1
    assert own.exists()
