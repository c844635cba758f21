"""Request serving for experiment studies: the system's front door.

Where :mod:`repro.exec` distributes one caller's grid across processes,
:mod:`repro.serve` multiplexes *many callers* onto one executor:

- :mod:`repro.serve.service` — :class:`StudyService`, the one serve
  front end, an asyncio single-flight layer: concurrent identical
  requests (same :func:`~repro.exec.speckey.spec_key`) collapse to one
  execution, distinct requests share self-clocking batches (at most one
  outstanding batch per *lane*), admission control rejects (with a
  ``retry_after`` hint) instead of queueing without bound, and
  ``submit(spec, deadline=...)`` bounds one request.
  :meth:`~StudyService.drain` completes all admitted work while
  refusing new requests.
- :mod:`repro.serve.cluster` — :class:`StudyCluster`, the same front end
  with process-shard lanes: N worker processes (own executor +
  in-memory L1, shared on-disk L2), and the service's in-process lane
  as the fallback.  The front end's single-flight spans every shard;
  each new :func:`~repro.exec.speckey.spec_key` is placed on the
  least-loaded healthy shard and stays there, with the
  :class:`~repro.serve.router.ShardRouter` ring owner as the
  tie-break.  Self-healing by default: a supervisor detects
  dead and wedged workers, respawns them, and replays their in-flight
  requests.
- :mod:`repro.serve.breaker` — :class:`CircuitBreaker`, the
  deterministic per-shard closed → open → half-open state machine
  that routes traffic to the fallback lane while a shard flaps.
- :mod:`repro.serve.router` — the consistent-hash ring (stable,
  balanced, minimally disruptive on resize) naming each key's ring
  owner, the tie-break of placement.
- :mod:`repro.serve.loadgen` — seeded zipfian traffic generation,
  the deterministic scoreboard, and seeded :class:`ChaosPlan` fault
  schedules ("millions of users" replay harness + chaos harness).
- :mod:`repro.serve.requests` — the JSON request dialect the
  ``repro-serve`` CLI and the throughput benchmark replay.
- :mod:`repro.serve.cli` — the ``repro-serve`` entry point.

Semantics, metric names and the backpressure contract are documented in
``docs/serving.md``; the measured win over naive per-request execution
lives in ``benchmarks/bench_serve_throughput.py``.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.cluster import (
    ClusterStats,
    ShardConfig,
    ShardDown,
    StudyCluster,
)
from repro.serve.loadgen import (
    ChaosOp,
    ChaosPlan,
    LoadReport,
    ZipfianMix,
    balanced_universe,
    default_universe,
    run_load,
    scoreboard,
    zipfian_sequence,
)
from repro.serve.requests import RequestGroup, build_spec, parse_script
from repro.serve.router import ShardRouter
from repro.serve.service import (
    DeadlineExceeded,
    Overloaded,
    RequestFailed,
    ServeError,
    ServeStats,
    ServiceClosed,
    StudyService,
)

__all__ = [
    "ChaosOp",
    "ChaosPlan",
    "CircuitBreaker",
    "ClusterStats",
    "DeadlineExceeded",
    "LoadReport",
    "Overloaded",
    "RequestFailed",
    "RequestGroup",
    "ServeError",
    "ServeStats",
    "ServiceClosed",
    "ShardConfig",
    "ShardDown",
    "ShardRouter",
    "StudyCluster",
    "StudyService",
    "ZipfianMix",
    "balanced_universe",
    "build_spec",
    "default_universe",
    "parse_script",
    "run_load",
    "scoreboard",
    "zipfian_sequence",
]
