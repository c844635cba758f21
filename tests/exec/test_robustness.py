"""Executor self-robustness: crashed workers, timeouts, failed points,
read-only caches, and checkpoint/resume."""

import dataclasses
import os

import pytest

import repro.exec.executor as executor_mod
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.core.sweep import Sweep
from repro.exec import ExperimentExecutor
from repro.exec.cache import ResultCache
from repro.exec.executor import ExecutionError, _execute_spec
from repro.exec.failures import FailedPoint
from repro.exec.speckey import spec_key
from repro.hardware import catalog

_real_execute = _execute_spec


def small_wm():
    return AlyaWorkModel(
        case=CaseKind.CFD, n_cells=200_000, cg_iters_per_step=3,
        nominal_timesteps=10,
    )


def make_specs(n_nodes_list=(1, 2)):
    return [
        ExperimentSpec(
            name=f"robust-{n}n",
            cluster=catalog.LENOX,
            runtime_name="singularity",
            technique=BuildTechnique.SELF_CONTAINED,
            workmodel=small_wm(),
            n_nodes=n,
            ranks_per_node=7,
            threads_per_rank=1,
            sim_steps=1,
            granularity=EndpointGranularity.RANK,
        )
        for n in n_nodes_list
    ]


# -- read-only cache (satellite: cache writes are non-fatal) ------------------
def test_unwritable_cache_degrades_to_a_warning(monkeypatch):
    def deny(self, spec, result):
        raise PermissionError("read-only cache")

    monkeypatch.setattr(ResultCache, "put", deny)
    ex = ExperimentExecutor(workers=1, cache=True, cache_dir="/nonexistent")
    with pytest.warns(RuntimeWarning, match="result-cache write failed"):
        results = ex.run_many(make_specs())
    assert all(isinstance(r, ExperimentResult) for r in results)
    assert ex.stats.cache_write_errors == 2
    assert ex.stats.executed == 2


def test_readonly_cache_dir_on_disk(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("root ignores directory permissions")
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir(mode=0o500)
    ex = ExperimentExecutor(workers=1, cache=True, cache_dir=cache_dir)
    with pytest.warns(RuntimeWarning):
        results = ex.run_many(make_specs((1,)))
    assert isinstance(results[0], ExperimentResult)
    assert ex.stats.cache_write_errors == 1


# -- crashed workers / timeouts ----------------------------------------------
# The worker bodies below must be MODULE-LEVEL functions: the pool
# pickles the submitted callable by qualified name, so closures or local
# defs never reach a worker process.  First-attempt state is carried
# through a sentinel file named in the environment (workers inherit it).
def _crash_once(spec, with_obs):
    """Die hard on the first attempt at the 1-node spec."""
    sentinel = os.environ["ROBUST_SENTINEL"]
    if spec.n_nodes == 1 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(13)
    return _real_execute(spec, with_obs)


def _wedge_once(spec, with_obs):
    """Hang forever on the first attempt at the 1-node spec."""
    import time

    sentinel = os.environ["ROBUST_SENTINEL"]
    if spec.n_nodes == 1 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        time.sleep(300)
    return _real_execute(spec, with_obs)


def _always_crash(spec, with_obs):
    os._exit(13)


def test_crashed_worker_is_retried(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUST_SENTINEL", str(tmp_path / "crashed"))
    monkeypatch.setattr(executor_mod, "_execute_spec", _crash_once)
    ex = ExperimentExecutor(workers=2, retry_backoff=0.01)
    results = ex.run_many(make_specs())
    assert all(isinstance(r, ExperimentResult) for r in results)
    assert [r.n_nodes for r in results] == [1, 2]
    assert ex.stats.retries >= 1
    # The retried grid equals an undisturbed serial run.
    clean = ExperimentExecutor(workers=1).run_many(make_specs())
    assert results == clean


def test_wedged_worker_times_out_and_is_retried(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUST_SENTINEL", str(tmp_path / "wedged"))
    monkeypatch.setattr(executor_mod, "_execute_spec", _wedge_once)
    ex = ExperimentExecutor(workers=2, timeout=5.0, retry_backoff=0.01)
    results = ex.run_many(make_specs())
    assert all(isinstance(r, ExperimentResult) for r in results)
    assert ex.stats.retries >= 1


def test_retries_exhausted_becomes_failed_point(monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_spec", _always_crash)
    # Two always-crashing specs keep the retry rounds pooled (an inline
    # fallback would run the crashing body in this process).
    ex = ExperimentExecutor(
        workers=2, max_retries=1, retry_backoff=0.01, keep_going=True
    )
    results = ex.run_many(make_specs())
    assert all(isinstance(r, FailedPoint) for r in results)
    assert all(r.error_type == "WorkerFailure" for r in results)
    assert all(r.attempts == 2 for r in results)
    assert ex.stats.failures == 2


# -- deterministic simulation failures ---------------------------------------
def fail_one_spec(spec, with_obs):
    if spec.n_nodes == 2:
        raise ValueError("synthetic deterministic failure")
    return _real_execute(spec, with_obs)


def test_keep_going_annotates_the_failed_point(monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_one_spec)
    ex = ExperimentExecutor(workers=1, keep_going=True)
    ok, failed = ex.run_many(make_specs())
    assert isinstance(ok, ExperimentResult)
    assert isinstance(failed, FailedPoint)
    assert failed.error_type == "ValueError"
    assert "synthetic" in failed.error
    assert failed.attempts == 1


def test_fail_fast_raises_execution_error(monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_one_spec)
    ex = ExperimentExecutor(workers=1)
    with pytest.raises(ExecutionError, match="robust-2n"):
        ex.run_many(make_specs())


def test_failed_points_surface_in_sweep_csv(monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_one_spec)
    sweep = Sweep(
        cluster=catalog.LENOX,
        workmodel=small_wm(),
        variants=[("sing", "singularity", BuildTechnique.SELF_CONTAINED)],
        nodes=(1, 2),
        ranks_per_node=7,
        sim_steps=1,
        executor=ExperimentExecutor(workers=1, keep_going=True),
    )
    result = sweep.run()
    assert len(result.ok_rows()) == 1
    assert len(result.failed_rows()) == 1
    csv_text = result.to_csv()
    assert "failed,ValueError: synthetic deterministic failure" in csv_text


# -- checkpoint / resume ------------------------------------------------------
def make_sweep(executor):
    return Sweep(
        cluster=catalog.LENOX,
        workmodel=small_wm(),
        variants=[
            ("self", "singularity", BuildTechnique.SELF_CONTAINED),
            ("sys", "singularity", BuildTechnique.SYSTEM_SPECIFIC),
        ],
        nodes=(1, 2),
        ranks_per_node=7,
        sim_steps=1,
        executor=executor,
    )


def test_killed_sweep_resumes_to_identical_csv(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    reference = make_sweep(ExperimentExecutor(workers=1)).run().to_csv()

    calls = {"n": 0}

    def die_mid_sweep(spec, with_obs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise KeyboardInterrupt  # the "kill" arrives mid-grid
        return _real_execute(spec, with_obs)

    monkeypatch.setattr(executor_mod, "_execute_spec", die_mid_sweep)
    interrupted = ExperimentExecutor(workers=1, checkpoint_dir=ckpt)
    with pytest.raises(KeyboardInterrupt):
        make_sweep(interrupted).run()
    assert len(interrupted.checkpoint) == 2  # first two points persisted

    monkeypatch.setattr(executor_mod, "_execute_spec", _real_execute)
    resumed_ex = ExperimentExecutor(workers=1, checkpoint_dir=ckpt)
    resumed = make_sweep(resumed_ex).run()
    assert resumed_ex.stats.resumed == 2
    assert resumed_ex.stats.executed == 2
    assert resumed.to_csv() == reference


def test_checkpoint_replays_failures_too(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_one_spec)
    first = ExperimentExecutor(workers=1, keep_going=True,
                               checkpoint_dir=ckpt)
    outcomes = first.run_many(make_specs())
    assert isinstance(outcomes[1], FailedPoint)

    # Resume replays the failure without executing anything.
    def boom(spec, with_obs):  # pragma: no cover - must not run
        raise AssertionError("resume re-executed a checkpointed point")

    monkeypatch.setattr(executor_mod, "_execute_spec", boom)
    second = ExperimentExecutor(workers=1, keep_going=True,
                                checkpoint_dir=ckpt)
    replayed = second.run_many(make_specs())
    assert replayed == outcomes
    assert second.stats.resumed == 2
    assert second.stats.executed == 0


def test_checkpoint_replay_carries_the_requesting_name(tmp_path, monkeypatch):
    """The spec key ignores display names: a resumed point answers under
    the name it was asked for, for results and for failures alike."""
    ckpt = tmp_path / "ckpt"
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_one_spec)
    ExperimentExecutor(workers=1, keep_going=True,
                       checkpoint_dir=ckpt).run_many(make_specs())
    renamed = [dataclasses.replace(s, name=f"renamed-{s.n_nodes}n")
               for s in make_specs()]
    resumed = ExperimentExecutor(workers=1, keep_going=True,
                                 checkpoint_dir=ckpt)
    ok, failed = resumed.run_many(renamed)
    assert resumed.stats.resumed == 2 and resumed.stats.executed == 0
    assert isinstance(ok, ExperimentResult)
    assert isinstance(failed, FailedPoint)
    assert [ok.spec_name, failed.spec_name] == ["renamed-1n", "renamed-2n"]
    assert failed.key == spec_key(renamed[1])


def test_fail_fast_aborts_on_a_replayed_failure(tmp_path, monkeypatch):
    """A failure replayed from a checkpoint aborts a fail-fast run as an
    executed failure does: a keep-going run fills the checkpoint, then
    a fail-fast run over the same directory raises without executing."""
    ckpt = tmp_path / "ckpt"
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_one_spec)
    ExperimentExecutor(workers=1, keep_going=True,
                       checkpoint_dir=ckpt).run_many(make_specs())

    def boom(spec, with_obs):  # pragma: no cover - must not run
        raise AssertionError("a fail-fast resume executed a point")

    monkeypatch.setattr(executor_mod, "_execute_spec", boom)
    fail_fast = ExperimentExecutor(workers=1, checkpoint_dir=ckpt)
    with pytest.raises(ExecutionError, match="robust-2n.*synthetic"):
        fail_fast.run_many(make_specs())
    assert fail_fast.stats.executed == 0


def fail_third_spec(spec, with_obs):
    if spec.n_nodes == 3:
        raise ValueError("synthetic deterministic failure")
    return _real_execute(spec, with_obs)


@pytest.mark.parametrize("workers", [1, 2])
def test_fail_fast_abort_keeps_its_finished_points(
    tmp_path, monkeypatch, workers
):
    """Each finished point is counted and stored in every store as it is
    collected, so the abort on the third point loses neither the first
    two results nor their accounting."""
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_third_spec)
    ex = ExperimentExecutor(workers=workers, cache=True,
                            cache_dir=tmp_path / "cache",
                            checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(ExecutionError, match="robust-3n"):
        ex.run_many(make_specs((1, 2, 3)))
    assert ex.stats.executed == 2
    assert len(ex.cache) == 2
    assert len(ex.checkpoint) == 2

    # A warm rerun answers the finished points from the cache.
    monkeypatch.setattr(executor_mod, "_execute_spec", _real_execute)
    rerun = ExperimentExecutor(workers=1, cache=True,
                               cache_dir=tmp_path / "cache")
    rerun.run_many(make_specs((1, 2, 3)))
    assert (rerun.stats.hits, rerun.stats.executed) == (2, 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_outcome_is_checkpointed_once(tmp_path, monkeypatch, workers):
    """Every outcome, success or failure, is stored once, when it is
    collected; a resumed run replays them and stores nothing."""
    stored = []
    real_put = ResultCache.put

    def counting_put(self, spec, outcome):
        stored.append(spec_key(spec))
        return real_put(self, spec, outcome)

    monkeypatch.setattr(ResultCache, "put", counting_put)
    monkeypatch.setattr(executor_mod, "_execute_spec", fail_one_spec)
    specs = make_specs((1, 2, 3))
    ex = ExperimentExecutor(workers=workers, keep_going=True,
                            checkpoint_dir=tmp_path / "ckpt")
    outcomes = ex.run_many(specs)
    assert sum(isinstance(o, FailedPoint) for o in outcomes) == 1
    assert ex.stats.executed == 3
    assert sorted(stored) == sorted(spec_key(s) for s in specs)

    stored.clear()
    resumed = ExperimentExecutor(workers=workers, keep_going=True,
                                 checkpoint_dir=tmp_path / "ckpt")
    assert resumed.run_many(specs) == outcomes
    assert resumed.stats.resumed == 3
    assert stored == []
