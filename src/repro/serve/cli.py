"""``repro-serve``: run the study service or a sharded cluster.

Three traffic modes (exactly one required):

- ``--script FILE`` — JSON replay script (see :mod:`repro.serve.requests`);
- ``--burst N`` — N concurrent identical requests (single-flight demo);
- ``--zipf S`` — a seeded zipfian mix (``--requests``, ``--universe``,
  ``--seed``): the "millions of users" traffic shape, served through the
  deterministic load generator (:mod:`repro.serve.loadgen`) and scored
  with throughput / dedupe ratio / tail latency / digest.

Any mode can target a sharded cluster instead of the in-process
service: ``--shards N`` spawns N worker processes behind the one front
end, which places each new key on the least-loaded shard
(:mod:`repro.serve.cluster`), with per-shard L1 memos and, with
``--cache``, the shared on-disk cache as L2.

Examples
--------
::

    repro-serve --script examples/serve_smoke.json
    repro-serve --burst 64 --expect-dedupe 63 --expect-max-executed 1
    repro-serve --zipf 1.1 --requests 64 --universe 8 --seed 7 --shards 2
    repro-serve --zipf 1.1 --requests 200 --universe 16 --shards 4 \\
        --expect-dedupe 184 --expect-max-executed 16 --json -

The ``--expect-*`` flags turn the run into a check (exit 1 on
violation); ``--expect-dedupe`` counts every avoided execution —
single-flight joins plus L1/L2 hits.  Bad inputs (missing/invalid
script, unwritable ``--json`` path, a bound below 1, ``--runtime``
outside ``--burst``) exit 2 with a one-line message, never a
traceback.  See ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from typing import Optional, Sequence

from repro.containers.compat import CompatibilityError
from repro.core.figures import ascii_table
from repro.exec import ExperimentExecutor
from repro.serve.cluster import StudyCluster
from repro.serve.loadgen import (
    MAX_RETRIES,
    ZipfianMix,
    default_universe,
    run_load,
    scoreboard,
)
from repro.serve.requests import RequestGroup, build_spec, parse_script
from repro.serve.service import (
    Overloaded,
    RequestFailed,
    ServiceClosed,
    StudyService,
)


async def _replay(service, groups: "list[RequestGroup]") -> dict:
    """Fire every group's requests concurrently; tally the outcomes."""
    tally = {"ok": 0, "rejected": 0, "failed": 0, "closed": 0}

    async def one(spec):
        try:
            await service.submit(spec)
            tally["ok"] += 1
        except Overloaded:
            tally["rejected"] += 1
        except ServiceClosed:
            tally["closed"] += 1
        except RequestFailed:
            tally["failed"] += 1

    async with service:
        tasks = []
        for group in groups:
            if group.delay_ms:
                await asyncio.sleep(group.delay_ms / 1000.0)
            tasks.extend(
                asyncio.ensure_future(one(group.spec))
                for _ in range(group.count)
            )
        await asyncio.gather(*tasks)
    return tally


def _scoreboard(target, tally: Optional[dict]) -> str:
    stats = target.stats
    lat = stats.latency_summary()
    rows = [
        ["requests", stats.requests],
    ]
    if tally is not None:
        rows.append(["  ok", tally["ok"]])
    rows += [
        ["  deduped (single-flight)", stats.dedup_hits],
        ["  rejected (backpressure)", stats.rejected],
    ]
    if tally is not None:
        rows.append(["  failed", tally["failed"]])
    rows += [
        ["batches", stats.batches],
        ["flights executed", stats.flights],
        ["simulations executed", stats.executed],
        ["L1 hits (in-memory)", stats.l1_hits],
        ["L2 hits (result cache)", stats.l2_hits],
        ["latency p50 [ms]", round(lat["p50"] * 1e3, 3)],
        ["latency p95 [ms]", round(lat["p95"] * 1e3, 3)],
        ["latency p99 [ms]", round(lat["p99"] * 1e3, 3)],
    ]
    if isinstance(target, StudyCluster):
        rows.append(["shards", target.stats.shards])
        rows.append(
            ["requests by shard",
             "/".join(str(n) for n in target.stats.requests_by_shard)]
        )
        ratio = target.stats.balance_ratio()
        rows.append(
            ["shard balance (max/min)",
             "inf" if ratio == float("inf") else round(ratio, 3)]
        )
        rows += [
            ["shard crashes", target.stats.shard_crashes],
            ["  respawned", target.stats.respawns],
            ["  flights replayed", target.stats.replayed],
            ["  served via fallback", target.stats.fallbacks],
        ]
    return ascii_table(["serve", "value"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve experiment requests through the single-flight study "
            "service or a sharded cluster, and report dedupe/batch/"
            "latency statistics."
        ),
    )
    src = parser.add_argument_group("traffic (exactly one)")
    src.add_argument(
        "--script", metavar="FILE", default=None,
        help="JSON replay script (list of request objects; see "
             "docs/serving.md)",
    )
    src.add_argument(
        "--burst", type=int, default=None, metavar="N",
        help="synthetic traffic: N concurrent identical requests",
    )
    src.add_argument(
        "--zipf", type=float, default=None, metavar="S",
        help="seeded zipfian mix with exponent S (use with --requests/"
             "--universe/--seed)",
    )
    src.add_argument(
        "--requests", type=int, default=64, metavar="N",
        help="zipf mode: total requests to replay (default 64)",
    )
    src.add_argument(
        "--universe", type=int, default=8, metavar="N",
        help="zipf mode: distinct specs in the universe (default 8)",
    )
    src.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="zipf mode: mix seed (default 0)",
    )
    src.add_argument(
        "--concurrency", type=int, default=32, metavar="N",
        help="zipf mode: max requests in flight (default 32)",
    )
    src.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="zipf mode: Overloaded retries per request before it is "
             "recorded as an error (default: the load generator's "
             "ceiling of 100; 0 = fail on first rejection)",
    )
    src.add_argument(
        "--fig", choices=["fig1", "fig3"], default="fig1",
        help="figure shape for --burst / --zipf (default fig1)",
    )
    src.add_argument(
        "--runtime", default=None,
        help="container runtime for --burst (default: per-figure)",
    )
    src.add_argument(
        "--workload", default="alya", metavar="NAME",
        help="registered workload for --burst / --zipf (default alya; "
             "see repro.workloads)",
    )
    src.add_argument(
        "--nodes", type=int, default=2, metavar="N",
        help="nodes for --burst / --zipf (default 2)",
    )
    src.add_argument(
        "--sim-steps", type=int, default=1, metavar="N",
        help="simulated steps per request for --burst / --zipf "
             "(default 1)",
    )
    svc = parser.add_argument_group("service / cluster")
    svc.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve through an N-shard cluster instead of the "
             "in-process service (default 0 = in-process)",
    )
    svc.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="admission bound on in-flight unique specs (per shard "
             "when clustered; default 64)",
    )
    svc.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="max flights per executor submission (default 16)",
    )
    svc.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="executor worker processes (per shard when clustered; "
             "default 1)",
    )
    svc.add_argument(
        "--l1", action=argparse.BooleanOptionalAction, default=None,
        help="in-memory result memo (default: on for --zipf and for "
             "clusters, off otherwise)",
    )
    svc.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="back the service with the spec-keyed result cache "
             "(the shared L2 when clustered)",
    )
    svc.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )
    chk = parser.add_argument_group("checks (exit 1 on violation)")
    chk.add_argument(
        "--expect-dedupe", type=int, default=None, metavar="N",
        help="fail unless at least N executions were avoided "
             "(single-flight joins + L1 + L2 hits)",
    )
    chk.add_argument(
        "--expect-max-executed", type=int, default=None, metavar="N",
        help="fail if more than N simulations actually executed",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="also dump the scoreboard as JSON to FILE ('-' = stdout)",
    )
    return parser


def _build_target(args):
    l1 = args.l1
    if l1 is None:
        l1 = args.zipf is not None or args.shards >= 1
    if args.shards >= 1:
        return StudyCluster(
            shards=args.shards,
            workers_per_shard=args.workers,
            cache=args.cache,
            cache_dir=args.cache_dir,
            l1=l1,
            max_pending=args.max_pending,
            max_batch=args.max_batch,
        )
    return StudyService(
        executor=ExperimentExecutor(
            workers=args.workers,
            cache=args.cache,
            cache_dir=args.cache_dir,
            l1=l1,
            keep_going=True,
        ),
        max_pending=args.max_pending,
        max_batch=args.max_batch,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    modes = sum(
        x is not None for x in (args.script, args.burst, args.zipf)
    )
    if modes != 1:
        print(
            "error: exactly one of --script / --burst / --zipf is "
            "required",
            file=sys.stderr,
        )
        return 2
    if args.burst is not None and args.burst < 1:
        print("error: --burst must be >= 1", file=sys.stderr)
        return 2
    if args.shards < 0:
        print("error: --shards must be >= 0", file=sys.stderr)
        return 2
    for flag in ("max_pending", "max_batch", "workers"):
        if getattr(args, flag) < 1:
            print(f"error: --{flag.replace('_', '-')} must be >= 1",
                  file=sys.stderr)
            return 2
    if args.zipf is not None and (
        not 0 <= args.zipf < math.inf or args.requests < 1
        or args.universe < 1 or args.concurrency < 1
    ):
        print(
            "error: --zipf needs a finite S >= 0, --requests/--universe/"
            "--concurrency >= 1",
            file=sys.stderr,
        )
        return 2
    if args.max_retries is not None and args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2
    if args.runtime is not None and args.burst is None:
        print("error: --runtime applies to --burst only", file=sys.stderr)
        return 2

    groups = mix = None
    if args.script is not None:
        try:
            with open(args.script) as fh:
                groups = parse_script(json.load(fh))
        except (OSError, ValueError, CompatibilityError) as exc:
            # Missing file, directory, permission error, bad JSON, bad
            # dialect, a runtime the figure's cluster lacks: a usage
            # problem, reported on one line — exit 2.
            print(
                f"error: bad request script {args.script!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    elif args.burst is not None:
        try:
            spec = build_spec(
                args.fig, args.runtime, args.nodes, args.sim_steps,
                workload=args.workload,
            )
        except (KeyError, ValueError, CompatibilityError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        groups = [RequestGroup(spec=spec, count=args.burst)]
    else:
        try:
            universe = default_universe(
                args.universe,
                fig=args.fig,
                nodes=args.nodes,
                sim_steps=args.sim_steps,
                workload=args.workload,
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        mix = ZipfianMix.build(
            universe,
            args.requests,
            s=args.zipf,
            seed=args.seed,
        )

    target = _build_target(args)

    if mix is not None:

        async def zipf_replay():
            async with target:
                return await run_load(
                    target, mix,
                    concurrency=args.concurrency,
                    max_retries=args.max_retries,
                )

        report = asyncio.run(zipf_replay())
        if report.overload_exhausted:
            hint = (
                f"{report.last_retry_after:.3f}s"
                if report.last_retry_after is not None
                else "n/a"
            )
            ceiling = (
                args.max_retries
                if args.max_retries is not None
                else MAX_RETRIES
            )
            print(
                f"error: {report.overload_exhausted} request(s) gave up "
                f"after the retry ceiling ({ceiling} retries); server's "
                f"last retry_after hint was {hint} — raise --max-retries "
                "or lower the offered load",
                file=sys.stderr,
            )
        board = scoreboard(
            report,
            target.stats.executed,
            per_shard=(
                target.stats.requests_by_shard
                if isinstance(target, StudyCluster)
                else None
            ),
        )
        print(
            f"Replayed {board['requests']} zipf(s={args.zipf}) "
            f"request(s) over {board['universe']} spec(s), seed "
            f"{args.seed}; errors {board['errors']}\n"
        )
        print(_scoreboard(target, None))
        print(f"\nthroughput {board['throughput_rps']:.1f} req/s, "
              f"dedupe ratio {board['dedupe_ratio']:.3f}, "
              f"digest {board['digest'][:16]}…")
        tally = None
        drained_clean = report.errors == 0
        json_payload = {
            "scoreboard": board,
            "serve": target.stats.as_dict(),
        }
    else:
        tally = asyncio.run(_replay(target, groups))
        total = sum(g.count for g in groups)
        resolved = sum(tally.values())
        drained_clean = resolved == total and target.pending == 0
        print(f"Replayed {total} request(s) in {len(groups)} group(s); "
              f"drain {'clean' if drained_clean else 'INCOMPLETE'}\n")
        print(_scoreboard(target, tally))
        drained_clean = drained_clean and tally["failed"] == 0
        json_payload = {
            "tally": tally,
            "serve": target.stats.as_dict(),
            "drained_clean": drained_clean,
        }

    if args.json:
        blob = (
            json.dumps(
                json_payload, indent=2, sort_keys=True, allow_nan=False
            ) + "\n"
        )
        if args.json == "-":
            print(blob, end="")
        else:
            try:
                with open(args.json, "w") as fh:
                    fh.write(blob)
            except OSError as exc:
                print(
                    f"error: cannot write --json report {args.json!r}: "
                    f"{exc}",
                    file=sys.stderr,
                )
                return 2

    ok = drained_clean
    stats = target.stats
    if args.expect_dedupe is not None:
        got = stats.dedup_hits + stats.l1_hits + stats.l2_hits
        if got < args.expect_dedupe:
            print(f"CHECK FAILED: deduped {got} < expected "
                  f"{args.expect_dedupe}", file=sys.stderr)
            ok = False
    if args.expect_max_executed is not None:
        if stats.executed > args.expect_max_executed:
            print(f"CHECK FAILED: executed {stats.executed} > allowed "
                  f"{args.expect_max_executed}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
