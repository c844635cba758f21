#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload's fixed body of work until
``--seconds`` is spent (times rescaled to a reference host speed, see
``speed.py``), checks every output against
``perfbench/reference.json`` and prints the end-to-end metrics.
``--trace 1`` runs the body untraced once, then twice more with wall
spans recorded around the layers' public entry points (the second pass
also profiles), prints the per-layer metrics and writes the spans as a
Chrome trace under ``perfbench/out/``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any output that differs from the reference
makes the command exit 1.

``--write-reference`` regenerates ``perfbench/reference.json`` from the
current code.  See ``perfbench/README.md`` for the workloads, the
metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 9
WORKLOAD_NAMES = ("fig1_grid", "fig3_sweep", "serve_zipf", "faults_phased")


def machine_fingerprint() -> dict:
    """Enough to tell two runners apart, plus the time of the fixed
    pure-Python speed kernel that ``run_s`` is rescaled by (median of
    five runs), so numbers from different runners can be compared."""
    from speed import speed_sample

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "speed_sample_s": statistics.median(
            speed_sample() for _ in range(5)),
    }


def setup_probe(workload: str, seed: int) -> int:
    """Child side of ``setup_s``: import, construct, (start the cluster
    and hear from every shard), say ``ready``, tear down."""
    import asyncio

    import workloads as wl_mod

    wl = wl_mod.WORKLOADS[workload](seed, OUT_DIR)
    if isinstance(wl, wl_mod.ServeZipf):
        async def ready(_cluster):
            print("ready", flush=True)

        asyncio.run(wl.with_cluster(ready))
    else:
        wl.studies()
        print("ready", flush=True)
    return 0


def time_ready(cmd: list) -> float:
    """Wall time from spawning ``cmd`` until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        rc = proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"{cmd[1:]} did not get ready (rc {rc})")
    return elapsed


def setup_seconds(workload: str, seed: int) -> tuple:
    """``SETUP_PROBES`` fresh interpreters timed until they can issue the
    workload's first unit of work, each right after one run of the
    set-up reference: (raw wall seconds, reference wall seconds, the
    median of the raw ones rescaled to the reference host speed by the
    median reference)."""
    from speed import IMPORT_REF_CODE, IMPORT_REF_S

    probe = [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-probe"]
    refs, walls = [], []
    for _ in range(SETUP_PROBES):
        refs.append(time_ready([sys.executable, "-c", IMPORT_REF_CODE]))
        walls.append(time_ready(probe))
    scaled = statistics.median(walls) * IMPORT_REF_S / statistics.median(refs)
    return walls, refs, scaled


def run_untraced(wl, args) -> tuple:
    """Repeat the body until ``--seconds`` is spent (at least once)."""
    from workloads import median, peak_rss_mb

    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(wl.rep(metered=True))
        spent = time.perf_counter() - t0
        if spent + spent / len(reps) > args.seconds:
            break
    peak = peak_rss_mb(with_children=args.workload == "serve_zipf")
    setup_walls, setup_refs, setup_s = setup_seconds(args.workload, args.seed)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (median([r.seconds for r in reps]), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    detail = {"rep_wall_s": [r.wall_s for r in reps],
              "rep_run_s": [r.seconds for r in reps],
              "setup_wall_s": setup_walls,
              "setup_ref_s": setup_refs,
              "error_frac": failed / attempted}
    return reps, metrics, detail


def run_traced(wl, args) -> tuple:
    """Untraced base, span pass, profile pass (and, for serve_zipf, the
    open-loop ladder); per-layer metrics."""
    from probe import LAYERS, Probe
    from workloads import RATE_HI, RATE_LO, REQUESTS, median

    serve = args.workload == "serve_zipf"
    tmp = OUT_DIR / f"probe-tmp-{os.getpid()}"
    base = wl.rep()
    wl.rewind()
    with Probe(tmp) as spans:
        traced = wl.rep()
        spans.collect()
    wl.rewind()
    with Probe(tmp, profile=True) as prof:
        profiled = wl.rep()
        prof.collect()
    tmp.rmdir()
    reps = [base, traced, profiled]
    ladder = wl.ladder() if serve else None
    if ladder is not None:
        reps += [s["rep"] for s in ladder["steps"].values()]

    def med_of(name, scale):
        return median(spans.durations(name)) * scale

    c = spans.counters
    run_total = sum(spans.durations("core.run"))
    spec_s = spans.durations("core.run")
    m = {
        "des.events": (c["des.events"], "count"),
        "des.events_per_s": (c["des.events"] / run_total, "1/s"),
        "mpi.messages": (c["mpi.messages"], "count"),
        "mpi.bytes": (c["mpi.bytes"], "B"),
        "mpi.internode_messages": (c["mpi.internode_messages"], "count"),
        "mpi.matched_fast_ratio": (
            c["mpi.matched_fast"] / c["mpi.messages"]
            if c["mpi.messages"] else 0.0, "frac"),
        "mpi.messages_per_s": (c["mpi.messages"] / run_total, "1/s"),
        "faults.injected": (c["faults.injected"], "count"),
        "faults.requeues": (c["faults.requeues"], "count"),
        "core.spec_s.p50": (median(spec_s), "s"),
        "core.spec_s.max": (max(spec_s), "s"),
        "exec.overhead_s": (
            sum(spans.durations("exec.run_many")) - run_total, "s"),
        "exec.spec_key_us": (med_of("exec.spec_key", 1e6), "us"),
        "exec.cache_get_ms": (med_of("exec.cache_get", 1e3), "ms"),
        "exec.cache_put_ms": (med_of("exec.cache_put", 1e3), "ms"),
        "exec.result_json_ms": (med_of("exec.result_json", 1e3), "ms"),
        "exec.executed": (base.exec_stats["executed"], "count"),
        "exec.l1_hits": (base.exec_stats["l1_hits"], "count"),
        "exec.l2_hits": (base.exec_stats["l2_hits"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (prof.self_s[layer], "s")
    m["obs.profile_base_s"] = (prof.profiled_s, "s")
    m["obs.trace_overhead_frac"] = (traced.wall_s / base.wall_s - 1.0, "frac")

    lo = ladder["steps"][RATE_LO] if ladder else {}
    hi = ladder["steps"][RATE_HI] if ladder else {}
    m.update({
        "serve.start_s": (median(getattr(wl, "start_s", [])), "s"),
        "serve.hit_p50_ms": (lo.get("hit_p50_ms", 0.0), "ms"),
        "serve.miss_p50_ms": (lo.get("miss_p50_ms", 0.0), "ms"),
        "serve.dedupe_ratio": (lo.get("dedupe_ratio", 0.0), "frac"),
        "serve.batches": (lo.get("batches", 0), "count"),
        "serve.mean_batch": (lo.get("mean_batch", 0.0), "count"),
        "serve.retries": (lo.get("retries", 0), "count"),
        "serve.balance_ratio": (lo.get("balance_ratio", 0.0), "ratio"),
        "serve.gen_lag_p95_ms": (
            max((s["gen_lag_p95_ms"] for s in ladder["steps"].values()),
                default=0.0) if ladder else 0.0, "ms"),
        "serve.samples_per_rate": (REQUESTS if ladder else 0, "count"),
        "p50_ms.lo": (lo.get("p50_ms", 0.0), "ms"),
        "p95_ms.lo": (lo.get("p95_ms", 0.0), "ms"),
        "p50_ms.hi": (hi.get("p50_ms", 0.0), "ms"),
        "p95_ms.hi": (hi.get("p95_ms", 0.0), "ms"),
        "max_rps": (ladder["max_rps"] if ladder else 0.0, "1/s"),
    })
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    spans.write_chrome_trace(trace_path)
    detail = {"chrome_trace": str(trace_path.relative_to(ROOT))}
    if ladder:
        detail["ladder"] = {
            str(rate): {k: s[k] for k in (
                "p50_ms", "p95_ms", "gen_lag_p95_ms", "backlog_at_3q",
                "backlog_at_end", "backlog_growing", "passed")}
            for rate, s in ladder["steps"].items()
        }
    return reps, m, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json")
    args = parser.parse_args(argv)
    if not (args.workload or args.write_reference):
        parser.error("--workload is required")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads as wl_mod

    if args.write_reference:
        ref = {
            name: wl_mod.WORKLOADS[name](0, OUT_DIR).fingerprints()
            for name in WORKLOAD_NAMES
        }
        wl_mod.REFERENCE_PATH.write_text(
            json.dumps(ref, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {wl_mod.REFERENCE_PATH.relative_to(ROOT)}")
        return 0

    machine = machine_fingerprint()
    wl = wl_mod.WORKLOADS[args.workload](args.seed, OUT_DIR)
    runner = run_traced if args.trace else run_untraced
    reps, metrics, detail = runner(wl, args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if got != {m["name"]: m["unit"] for m in declared}:
        raise RuntimeError("metrics differ from BENCHMARK.json")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(reps)} machine={json.dumps(machine)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value!r:>24} {unit}")
    for p in problems[:20]:
        print(f"MISMATCH: {p}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine, "detail": detail,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
