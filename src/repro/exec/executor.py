"""Parallel experiment execution with deterministic reassembly.

:class:`ExperimentExecutor` takes a list of independent
:class:`~repro.core.experiment.ExperimentSpec`\\ s (one grid, in the
caller's canonical order), runs them — serially or across a
:class:`concurrent.futures.ProcessPoolExecutor` — and returns the
results *in the submission order*, so every downstream artefact (CSV,
figure, observability digest) is byte-identical regardless of worker
count.

Determinism contract
--------------------
- Each grid point builds its own :class:`~repro.des.engine.Environment`
  and its own :class:`~repro.core.runner.ExperimentRunner`; nothing is
  shared between points (the runner's documented statelessness
  invariant).
- When observability is requested, every *executed* point gets a fresh
  :class:`~repro.obs.span.Observability` whose spans/records/metrics are
  merged into the caller's instance in submission order — the merge
  order, not the completion order, defines the digest.  The serial path
  does exactly the same per-point bookkeeping, so ``workers=1`` and
  ``workers=N`` produce identical digests.
- Executor markers (``exec.submit`` / ``exec.cache_hit`` /
  ``exec.failed``) are zero-duration spans at t=0 carrying only
  deterministic attributes (grid index, spec name, key) — never
  wall-clock times or worker ids.

Caching
-------
With ``cache=True`` each point is looked up in a
:class:`~repro.exec.cache.ResultCache` before execution; hits skip the
simulation entirely (their results are replayed from JSON), misses are
executed.  A warm rerun of an unchanged grid therefore executes zero
simulations while producing the same results.  Cached points contribute
only their ``exec.cache_hit`` marker to a trace — full span trees exist
only for executed points.

With ``l1=True`` the executor additionally memoises successful results
in process memory, keyed by :func:`~repro.exec.speckey.spec_key`.  The
L1 is checked before the on-disk cache (which becomes the shared L2 in
a multi-process serving cluster — see :mod:`repro.serve.cluster`): a
repeat of an already-served spec costs a dict lookup, no JSON parse.
L2 hits are promoted into the L1; failures are never memoised (a retry
of a failed spec re-executes).  The lookup order is checkpoint → L1 →
L2 → execute.

Each executed point is counted in ``stats.executed`` and written to
every configured on-disk store the moment its outcome is collected,
once — so a fail-fast abort keeps everything it finished.  Store writes
are best-effort: an unwritable directory degrades to a warning, never a
crashed sweep.

Self-robustness
---------------
The executor survives its own failures (see ``docs/faults.md``):

- A crashed worker (``BrokenProcessPool``) or a point exceeding the
  per-spec ``timeout`` does not abort the grid — the pool is re-spawned
  and the unfinished points retried with exponential backoff, up to
  ``max_retries`` times (``exec.retries`` counter).
- A point whose *simulation* raises deterministically (e.g.
  :class:`~repro.faults.errors.RankFailure` after exhausted requeues)
  is not retried: with ``keep_going`` it comes back as an annotated
  :class:`~repro.exec.failures.FailedPoint`; without, it raises in grid
  order (fail-fast) — a failure replayed from a checkpoint too.
- With ``checkpoint_dir`` set, a second
  :class:`~repro.exec.cache.ResultCache` there holds every outcome,
  failures included; a killed sweep resumes from it to a
  byte-identical final CSV.  Cache entries and checkpoints written
  before the two shared one entry format read as misses and re-run.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.core.experiment import ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.core.runner import ExperimentRunner
from repro.exec.cache import PointOutcome, ResultCache
from repro.exec.failures import FailedPoint
from repro.exec.speckey import spec_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import Observability


def _execute_spec(
    spec: ExperimentSpec, with_obs: bool
) -> "tuple[ExperimentResult, Optional[Observability]]":
    """Run one spec in isolation (worker-process entry point).

    Builds a fresh runner (stateless by contract) and, when asked, a
    fresh Observability.  The environment reference is dropped before
    returning — a finished :class:`~repro.des.engine.Environment` holds
    generator frames, which cannot cross a process boundary.
    """
    obs = None
    if with_obs:
        from repro.obs.span import Observability

        obs = Observability()
    result = ExperimentRunner().run(spec, obs=obs)
    if obs is not None:
        obs.env = None
    return result, obs


@dataclass
class ExecStats:
    """Cumulative accounting of one executor's activity."""

    submitted: int = 0
    executed: int = 0
    hits: int = 0
    misses: int = 0
    #: repeats answered from the in-memory L1 memo (``l1=True`` only).
    l1_hits: int = 0
    #: grid points executed through the process pool (vs. inline).
    parallel_executed: int = 0
    #: infrastructure retries (crashed worker / timed-out point re-runs).
    retries: int = 0
    #: points that ended as FailedPoint annotations.
    failures: int = 0
    #: points replayed from a sweep checkpoint instead of executed.
    resumed: int = 0
    #: store writes (cache or checkpoint) that failed non-fatally.
    cache_write_errors: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "hits": self.hits,
            "misses": self.misses,
            "l1_hits": self.l1_hits,
            "parallel_executed": self.parallel_executed,
            "retries": self.retries,
            "failures": self.failures,
            "resumed": self.resumed,
            "cache_write_errors": self.cache_write_errors,
        }

    def snapshot(self) -> tuple:
        """The cache-accounting fields a serving layer deltas across a
        batch: ``(executed, l1_hits, hits, failures)``."""
        return (self.executed, self.l1_hits, self.hits, self.failures)

    def delta(self, before: tuple) -> dict:
        """What one batch added on top of a :meth:`snapshot`.

        Keys mirror the ``serve.shard.*`` wire vocabulary (``hits`` is
        reported as ``l2_hits`` — the on-disk cache is the L2 of the
        serving stack).  This is how a shard worker piggybacks exact
        per-batch execution accounting on every ``done`` message, so a
        worker killed later never takes already-reported counts with it.
        """
        executed, l1_hits, hits, failures = before
        return {
            "executed": self.executed - executed,
            "l1_hits": self.l1_hits - l1_hits,
            "l2_hits": self.hits - hits,
            "failures": self.failures - failures,
        }


class ExperimentExecutor:
    """Fan independent specs out to workers; reassemble deterministically.

    Parameters
    ----------
    workers:
        Worker processes for executed points.  ``None`` (the default)
        means ``os.cpu_count()``; ``1`` runs everything inline in the
        calling process (no pool, no pickling).
    cache:
        Enable the spec-keyed result cache.
    cache_dir:
        Cache root (default ``.repro-cache/``); only used when ``cache``
        is on.
    l1:
        Enable the in-process result memo (checked before the on-disk
        cache; successful results only).  This is the per-worker L1 of
        a serving cluster — see the *Caching* section above.
    timeout:
        Per-spec wall-clock budget in seconds (pooled execution only —
        inline runs cannot be preempted).  A point still running when
        its budget lapses is treated like a crashed worker: the pool is
        torn down and the point retried.
    max_retries:
        Infrastructure-failure retries (crash/timeout) per round before
        the affected points are declared failed.
    retry_backoff:
        Seconds before the first retry round; doubles per round.
    keep_going:
        When True, a point that ultimately fails (deterministic
        simulation error, or retries exhausted) comes back as a
        :class:`FailedPoint` instead of raising.
    checkpoint_dir:
        When set, per-point outcomes — failures included — are persisted
        there as soon as they are collected, and replayed on the next
        run (crash resume).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: bool = False,
        cache_dir: Union[str, Path] = ".repro-cache",
        l1: bool = False,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        keep_going: bool = False,
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # Written so NaN fails too: every comparison with NaN is false.
        if timeout is not None and not 0 < timeout < math.inf:
            raise ValueError("timeout must be positive and finite (or None)")
        if max_retries < 0 or not 0 <= retry_backoff < math.inf:
            raise ValueError(
                "max_retries and retry_backoff must be >= 0 and finite"
            )
        self.workers = workers
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache else None
        )
        self.l1: Optional[dict[str, ExperimentResult]] = {} if l1 else None
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.keep_going = keep_going
        self.checkpoint: Optional[ResultCache] = (
            ResultCache(checkpoint_dir, failures=True)
            if checkpoint_dir is not None
            else None
        )
        self.stats = ExecStats()

    # -- public API ---------------------------------------------------------
    def run(
        self, spec: ExperimentSpec, obs: "Optional[Observability]" = None
    ) -> ExperimentResult:
        """Run a single spec through the same cache/obs machinery."""
        return self.run_many([spec], obs=obs)[0]

    def run_many(
        self,
        specs: Sequence[ExperimentSpec],
        obs: "Optional[Observability]" = None,
    ) -> list[PointOutcome]:
        """Run every spec; outcomes come back in ``specs`` order.

        ``obs``, when given, receives one ``exec.submit`` /
        ``exec.cache_hit`` / ``exec.failed`` marker per point plus the
        merged per-point traces, all in submission order.
        """
        specs = list(specs)
        self.stats.submitted += len(specs)
        keys = [spec_key(s) for s in specs]

        results: list[Optional[PointOutcome]] = [None] * len(specs)
        cached = [False] * len(specs)

        # Checkpoint replay first: a resumed sweep replays outcomes —
        # including failures — exactly as first collected.  A replayed
        # failure aborts a fail-fast run as an executed one would.
        if self.checkpoint is not None:
            for i, spec in enumerate(specs):
                replayed = self.checkpoint.get(spec)
                if replayed is not None:
                    if (isinstance(replayed, FailedPoint)
                            and not self.keep_going):
                        raise ExecutionError(replayed)
                    results[i] = replayed
                    cached[i] = True
                    self.stats.resumed += 1

        # L1 (in-process memo) answers repeats without touching disk.
        if self.l1 is not None:
            for i, spec in enumerate(specs):
                if results[i] is not None:
                    continue
                hit = self.l1.get(keys[i])
                if hit is not None:
                    if hit.spec_name != spec.name:
                        hit = dataclasses.replace(hit, spec_name=spec.name)
                    results[i] = hit
                    cached[i] = True
                    self.stats.l1_hits += 1

        # Cache lookups for the rest: only misses are executed.
        if self.cache is not None:
            for i, spec in enumerate(specs):
                if results[i] is not None:
                    continue
                hit = self.cache.get(spec)
                if hit is not None:
                    results[i] = hit
                    cached[i] = True
                    self.stats.hits += 1
        miss_indices = [i for i in range(len(specs)) if results[i] is None]
        if self.cache is not None:
            self.stats.misses += len(miss_indices)

        # Execute the misses — pooled when it pays, inline otherwise —
        # retrying infrastructure failures with backoff.
        with_obs = obs is not None
        point_obs: dict[int, "Optional[Observability]"] = {}
        attempts = dict.fromkeys(miss_indices, 0)
        pending = list(miss_indices)
        rounds = 0
        while pending:
            for i in pending:
                attempts[i] += 1
            retry: list[int] = []
            if min(self.workers, len(pending)) > 1:
                retry = self._run_pooled(
                    specs, keys, pending, with_obs, results, point_obs,
                    attempts,
                )
            else:
                self._run_inline(
                    specs, keys, pending, with_obs, results, point_obs,
                    attempts,
                )
            pending = retry
            if not pending:
                break
            rounds += 1
            if rounds > self.max_retries:
                for i in pending:
                    self._collect(
                        specs, results, i,
                        self._fail_point(
                            specs[i], keys[i], "WorkerFailure",
                            "worker crashed or timed out on every attempt",
                            attempts[i],
                        ),
                        executed=False,
                    )
                break
            self.stats.retries += len(pending)
            if obs is not None:
                obs.metrics.counter("exec.retries").inc(len(pending))
            time.sleep(self.retry_backoff * (2.0 ** (rounds - 1)))

        # L1 promotion and deterministic obs reassembly, in grid order.
        for i, spec in enumerate(specs):
            outcome = results[i]
            if isinstance(outcome, FailedPoint):
                if obs is not None:
                    obs.add_span(
                        "exec.failed", "exec", 0.0, 0.0, track="exec",
                        index=i, spec=spec.name, key=keys[i],
                        error=outcome.error_type,
                    )
                    obs.metrics.counter("exec.faileds").inc()
                continue
            if self.l1 is not None:
                # Executed results and L2 hits both promote into the L1;
                # failures never do (a retried spec must re-execute).
                self.l1.setdefault(keys[i], outcome)
            if obs is not None:
                marker = "exec.cache_hit" if cached[i] else "exec.submit"
                obs.add_span(
                    marker, "exec", 0.0, 0.0, track="exec",
                    index=i, spec=spec.name, key=keys[i],
                )
                obs.metrics.counter(f"{marker}s").inc()
                po = point_obs.get(i)
                if po is not None:
                    obs.merge(po)
        return results  # type: ignore[return-value]

    # -- execution rounds ---------------------------------------------------
    def _run_pooled(
        self, specs, keys, pending, with_obs, results, point_obs, attempts
    ) -> list[int]:
        """One pool round; returns the indices needing a retry."""
        retry: list[int] = []
        n_workers = min(self.workers, len(pending))
        pool = ProcessPoolExecutor(max_workers=n_workers)
        killed = False
        try:
            futures = [
                (i, pool.submit(_execute_spec, specs[i], with_obs))
                for i in pending
            ]
            for i, future in futures:
                try:
                    result, point_obs[i] = future.result(
                        timeout=self.timeout
                    )
                except FutureTimeout:
                    # The worker is wedged on this spec: kill the pool
                    # (remaining futures fail over to the retry list).
                    retry.append(i)
                    self._kill_pool(pool)
                    killed = True
                    continue
                except BrokenProcessPool:
                    retry.append(i)
                    continue
                except Exception as exc:
                    # Deterministic simulation failure — not retried.
                    result = self._fail_point(
                        specs[i], keys[i], type(exc).__name__, str(exc),
                        attempts[i],
                    )
                self._collect(specs, results, i, result)
                self.stats.parallel_executed += 1
        finally:
            pool.shutdown(wait=not killed, cancel_futures=True)
        return retry

    def _run_inline(
        self, specs, keys, pending, with_obs, results, point_obs, attempts
    ) -> None:
        """Inline round (workers=1): no pool, no preemption."""
        for i in pending:
            try:
                result, point_obs[i] = _execute_spec(specs[i], with_obs)
            except Exception as exc:
                result = self._fail_point(
                    specs[i], keys[i], type(exc).__name__, str(exc),
                    attempts[i],
                )
            self._collect(specs, results, i, result)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate a pool whose worker is stuck mid-spec."""
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):  # pragma: no cover
                pass

    # -- outcome plumbing ---------------------------------------------------
    def _fail_point(
        self, spec, key, error_type, error, attempts
    ) -> FailedPoint:
        """Annotate a failed point; raises it instead when failing fast."""
        failed = FailedPoint(
            spec_name=spec.name,
            key=key,
            error_type=error_type,
            error=error,
            attempts=attempts,
        )
        self.stats.failures += 1
        if not self.keep_going:
            raise ExecutionError(failed) from None
        return failed

    def _collect(
        self, specs, results, i, outcome: PointOutcome, executed=True
    ) -> None:
        """Record point ``i``'s outcome the moment it is known: count it
        and write it, once, to every store that keeps it (the cache
        keeps successes only)."""
        results[i] = outcome
        if executed:
            self.stats.executed += 1
        failed = isinstance(outcome, FailedPoint)
        for store in (self.checkpoint, self.cache):
            if store is None or (failed and not store.failures):
                continue
            try:
                store.put(specs[i], outcome)
            except OSError as exc:
                self.stats.cache_write_errors += 1
                warnings.warn(
                    f"result-cache write failed for {specs[i].name!r} "
                    f"under {store.root}: {exc}; continuing without "
                    f"storing this point there",
                    RuntimeWarning,
                    stacklevel=2,
                )


class ExecutionError(RuntimeError):
    """A grid point failed and ``keep_going`` was off (fail-fast)."""

    def __init__(self, point: FailedPoint) -> None:
        super().__init__(
            f"grid point {point.spec_name!r} failed after "
            f"{point.attempts} attempt(s): "
            f"{point.error_type}: {point.error}"
        )
        self.point = point
