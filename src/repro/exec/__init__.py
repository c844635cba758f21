"""Work distribution for experiment grids: parallel fan-out + outcome store.

Every study in :mod:`repro.core.study` is a grid of *independent*
:class:`~repro.core.experiment.ExperimentSpec`\\ s — each point builds its
own :class:`~repro.des.engine.Environment` and shares nothing with its
neighbours.  This package exploits that:

- :mod:`repro.exec.executor` — :class:`ExperimentExecutor` fans specs out
  across a :class:`concurrent.futures.ProcessPoolExecutor` and reassembles
  the results in submission (grid) order, so CSV exports, figures and
  observability digests are byte-identical to a serial run;
- :mod:`repro.exec.speckey` — a canonical, content-addressed key for a
  spec (cluster, runtime, technique, work model, geometry, steps,
  granularity — everything that determines the simulation, *except* the
  display name);
- :mod:`repro.exec.cache` — :class:`ResultCache`, the one on-disk
  store: one JSON file per spec key holding a point's outcome.  As the
  result cache (``.repro-cache/``) it keeps successes, so re-running a
  study recomputes only the points whose spec actually changed; as the
  sweep checkpoint (``checkpoint_dir``) it also keeps failures, so a
  killed sweep resumes without re-running what already happened.
  Entries of the earlier, separate cache and checkpoint formats read as
  misses after an upgrade.

The determinism contract and the statelessness invariant the executor
relies on are documented in ``docs/parallel.md``.
"""

from repro.exec.cache import CACHE_FORMAT, ResultCache
from repro.exec.executor import ExecStats, ExecutionError, ExperimentExecutor
from repro.exec.failures import FailedPoint
from repro.exec.speckey import KEY_VERSION, canonical_spec_payload, spec_key

__all__ = [
    "CACHE_FORMAT",
    "ExecStats",
    "ExecutionError",
    "ExperimentExecutor",
    "FailedPoint",
    "KEY_VERSION",
    "ResultCache",
    "canonical_spec_payload",
    "spec_key",
]
