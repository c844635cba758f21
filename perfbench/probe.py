"""Wall-clock tracing for the traced benchmark run.

Nothing in ``src/`` is instrumented for wall time, so this module wraps
the public entry points of each layer from the outside (monkeypatching
for the duration of a traced pass) and records:

- a span per call, on the wall clock (``time.perf_counter``, which is
  system-wide on Linux, so spans from forked shard workers line up with
  the front end's): ``core.run`` (``ExperimentRunner.run``),
  ``exec.run_many``, ``exec.spec_key``, ``exec.cache_get`` /
  ``exec.cache_put``, ``exec.result_json`` (``ExperimentResult``
  to/from JSON dict) and ``serve.start`` / ``serve.submit`` /
  ``serve.drain`` (``StudyCluster``);
- the counters the program already keeps but only exposes inside a run
  (``Environment.events_executed``, ``SimComm.messages_matched_fast``),
  read from the instances the runner creates, plus the
  :class:`~repro.core.metrics.ExperimentResult` message and fault
  totals;
- with ``profile=True``, a deterministic profile (``cProfile``) of every
  ``ExperimentExecutor.run_many`` call, reduced to self time per
  ``repro`` module.

Shard workers of a :class:`~repro.serve.cluster.StudyCluster` are forked
after :meth:`Probe.install`, so they inherit the wrappers.  A worker has
no exit hook, so it rewrites its cumulative state to
``<out_dir>/probe-<pid>.json`` after each ``run_many`` call; the front
end folds those files in with :meth:`Probe.collect`.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from pathlib import Path

#: ``repro`` module (path under ``src/repro`` without ``.py``) → the
#: layer whose ``self_s`` it counts towards.  Modules not listed count
#: towards no named layer (core, exec, obs, serve, openmp, ...).
LAYER_OF_MODULE = {
    "des/engine": "des.engine",
    "des/events": "des.engine",
    "des/resources": "des.engine",
    "des/channels": "des.engine",
    "des/trace": "des.engine",
    "des/wheel": "des.wheel",
    "des/links": "des.links",
    "mpi/comm": "mpi.comm",
    "mpi/launcher": "mpi.comm",
    "mpi/datatypes": "mpi.comm",
    "mpi/topology": "mpi.comm",
    "mpi/perf": "mpi.comm",
    "mpi/matching": "mpi.matching",
    "mpi/collectives": "mpi.collectives",
    "mpi/fastpath": "mpi.collectives",
}
#: Packages attributed as a whole.
LAYER_OF_PACKAGE = {
    "alya": "alya",
    "workloads": "workloads",
    "containers": "containers",
    "oskernel": "oskernel",
    "scheduler": "scheduler",
    "hardware": "hardware",
    "faults": "faults",
}
LAYERS = tuple(
    sorted(set(LAYER_OF_MODULE.values()) | set(LAYER_OF_PACKAGE.values()))
)
COUNTERS = (
    "des.events",
    "mpi.messages",
    "mpi.bytes",
    "mpi.internode_messages",
    "mpi.matched_fast",
    "faults.injected",
    "faults.requeues",
)


def layer_of(filename: str):
    """The layer a profiled function's source file belongs to."""
    marker = os.sep + "repro" + os.sep
    idx = filename.rfind(marker)
    if idx < 0 or not filename.endswith(".py"):
        return None
    rel = filename[idx + len(marker):-3].replace(os.sep, "/")
    if rel in LAYER_OF_MODULE:
        return LAYER_OF_MODULE[rel]
    return LAYER_OF_PACKAGE.get(rel.split("/", 1)[0])


class Probe:
    """Spans, counters and (optionally) a profile of one traced pass."""

    def __init__(self, out_dir: Path, profile: bool = False) -> None:
        self.out_dir = Path(out_dir)
        self.profile = profile
        self._patches: list = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (name, track, start, end) on the perf_counter clock.
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.profiled_s = 0.0
        self._envs: list = []
        self._comms: list = []

    def _here(self) -> "Probe":
        # A forked shard worker starts from a copy of the front end's
        # state; it must report only what it recorded itself.
        if os.getpid() != self.pid:
            self._reset()
        return self

    # -- installation -------------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Probe":
        import repro.core.runner as runner_mod
        import repro.exec.cache as cache_mod
        import repro.exec.executor as executor_mod
        import repro.exec.speckey as speckey_mod
        import repro.serve.cluster as cluster_mod
        import repro.serve.loadgen as loadgen_mod
        import repro.serve.service as service_mod
        from repro.core.metrics import ExperimentResult

        probe = self
        track = self._track

        def timed(name, fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe._here().spans.append(
                        (name, track(), t0, time.perf_counter())
                    )
            return wrapper

        def timed_async(name, fn):
            async def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    probe._here().spans.append(
                        (name, track(), t0, time.perf_counter())
                    )
            return wrapper

        # Counting subclasses: the runner builds its Environment and
        # SimComm itself, so the probe sees them only by being the class
        # the runner instantiates.
        class CountingEnvironment(runner_mod.Environment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe._here()._envs.append(self)

        class CountingSimComm(runner_mod.SimComm):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe._here()._comms.append(self)

        self._patch(runner_mod, "Environment", CountingEnvironment)
        self._patch(runner_mod, "SimComm", CountingSimComm)

        run = runner_mod.ExperimentRunner.run

        def runner_run(self_, spec, obs=None):
            here = probe._here()
            here._envs.clear()
            here._comms.clear()
            t0 = time.perf_counter()
            result = run(self_, spec, obs=obs)
            here.spans.append(("core.run", track(), t0, time.perf_counter()))
            c = here.counters
            c["des.events"] += sum(e.events_executed for e in here._envs)
            if here._comms:
                c["mpi.matched_fast"] += here._comms[-1].messages_matched_fast
            c["mpi.messages"] += result.messages
            c["mpi.bytes"] += result.bytes_sent
            c["mpi.internode_messages"] += result.internode_messages
            c["faults.injected"] += result.faults_injected
            c["faults.requeues"] += result.requeues
            here._envs.clear()
            here._comms.clear()
            return result

        self._patch(runner_mod.ExperimentRunner, "run", runner_run)

        run_many = executor_mod.ExperimentExecutor.run_many

        def executor_run_many(self_, specs, obs=None):
            here = probe._here()
            prof = cProfile.Profile() if probe.profile else None
            t0 = time.perf_counter()
            if prof is not None:
                prof.enable()
            try:
                return run_many(self_, specs, obs=obs)
            finally:
                if prof is not None:
                    prof.disable()
                t1 = time.perf_counter()
                here.spans.append(("exec.run_many", track(), t0, t1))
                if prof is not None:
                    here.profiled_s += t1 - t0
                    here._fold_profile(prof)
                if os.getpid() != probe.owner_pid:
                    here._dump()

        self._patch(executor_mod.ExperimentExecutor, "run_many",
                    executor_run_many)

        key_fn = timed("exec.spec_key", speckey_mod.spec_key)
        for mod in (speckey_mod, executor_mod, cache_mod, cluster_mod,
                    loadgen_mod, service_mod):
            self._patch(mod, "spec_key", key_fn)
        cache_cls = cache_mod.ResultCache
        self._patch(cache_cls, "get", timed("exec.cache_get", cache_cls.get))
        self._patch(cache_cls, "put", timed("exec.cache_put", cache_cls.put))
        self._patch(ExperimentResult, "to_json_dict",
                    timed("exec.result_json", ExperimentResult.to_json_dict))
        from_json = timed("exec.result_json",
                          ExperimentResult.from_json_dict)
        self._patch(ExperimentResult, "from_json_dict",
                    classmethod(lambda cls, payload: from_json(payload)))
        cluster_cls = cluster_mod.StudyCluster
        for meth in ("start", "submit", "drain"):
            self._patch(cluster_cls, meth,
                        timed_async(f"serve.{meth}", getattr(cluster_cls, meth)))
        self.owner_pid = os.getpid()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def _track() -> str:
        return f"pid-{os.getpid()}"

    # -- profile reduction --------------------------------------------------
    def _fold_profile(self, prof: cProfile.Profile) -> None:
        for (filename, _line, _func), row in pstats.Stats(prof).stats.items():
            layer = layer_of(filename)
            if layer is not None:
                self.self_s[layer] += row[2]  # tottime: self time

    # -- worker hand-off ----------------------------------------------------
    def _dump(self) -> None:
        path = self.out_dir / f"probe-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "spans": self.spans,
            "counters": self.counters,
            "self_s": self.self_s,
            "profiled_s": self.profiled_s,
        }))
        tmp.replace(path)

    def collect(self) -> None:
        """Fold in what forked workers dumped (front end only)."""
        for path in sorted(self.out_dir.glob("probe-*.json")):
            state = json.loads(path.read_text())
            self.spans.extend(tuple(s) for s in state["spans"])
            for k, v in state["counters"].items():
                self.counters[k] += v
            for k, v in state["self_s"].items():
                self.self_s[k] += v
            self.profiled_s += state["profiled_s"]
            path.unlink()

    # -- queries ------------------------------------------------------------
    def durations(self, name: str) -> list:
        return [t1 - t0 for n, _track, t0, t1 in self.spans if n == name]

    def write_chrome_trace(self, path: Path) -> Path:
        """Export the spans through :mod:`repro.obs`'s Chrome-trace
        writer (one track per process, times relative to the first
        span)."""
        from repro.obs import Observability, write_chrome_trace

        obs = Observability()
        if self.spans:
            origin = min(s[2] for s in self.spans)
            for name, track, t0, t1 in sorted(self.spans, key=lambda s: s[2]):
                obs.add_span(name, name.split(".", 1)[0], t0 - origin,
                             t1 - origin, track=track)
        return write_chrome_trace(path, obs)
