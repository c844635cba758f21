"""Command-line entry point: regenerate any of the paper's artefacts.

Examples
--------
::

    repro-study fig1                 # Lenox container-solutions figure
    repro-study fig2                 # CTE-POWER portability figure
    repro-study fig3 --sim-steps 1   # MareNostrum4 FSI speedups, faster
    repro-study fig3 --workers 4     # fan the grid out over 4 processes
    repro-study all --cache          # reuse .repro-cache/ across reruns
    repro-study eval1                # deployment / image-size table
    repro-study eval2                # three-architecture comparison
    repro-study all                  # everything, with shape checks
    repro-study trace --fig fig1     # Chrome trace + metrics + digest
    repro-study trace --fig fig3 --nodes 8 --out /tmp/t
    repro-study trace --fig fig1 --workload stencil
    repro-study scaling --workload stencil   # strong+weak vs ideal
    repro-study scaling --workload graph --sim-steps 1
    repro-study faults               # fault-sensitivity study
    repro-study fig2 --fault-plan 'seed=7,link_rate=20,horizon=0.4'
    repro-study fig3 --keep-going --resume .repro-ckpt

Grids are always reassembled in deterministic order: ``--workers N``
changes wall-clock time, never the tables, verdicts or digests (see
``docs/parallel.md``).  Fault injection (``--fault-plan``, the
``faults`` study) is deterministic too — same plan seed, same failure
timeline, any worker count (see ``docs/faults.md``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Optional, Sequence

from repro.containers.compat import CompatibilityError
from repro.core.deployment import _RUNTIME_CLASSES
from repro.core.figures import (
    archs_table,
    ascii_table,
    deployment_table,
    fault_table,
    fig1_table,
    fig2_table,
    fig3_table,
)
from repro.core.report import (
    check_deployment,
    check_fault_sensitivity,
    check_fig1,
    check_fig2,
    check_fig3,
    verdict_lines,
)
from repro.core.study import (
    ContainerSolutionsStudy,
    FaultSensitivityStudy,
    PortabilityStudy,
    ScalabilityStudy,
    figure_spec,
)
from repro.core.metrics import ExperimentResult
from repro.exec import ExecutionError, ExperimentExecutor
from repro.faults import FaultPlan
from repro.hardware import catalog

#: Per-command default for ``--sim-steps`` when the flag is not given.
_DEFAULT_SIM_STEPS = 2


def _executor(args) -> ExperimentExecutor:
    """The work-distribution layer the study subcommands share.  Its
    in-process memo lets a spec that two subcommands of ``all`` run
    (eval1's 28x4 points are fig1's) execute once."""
    return ExperimentExecutor(
        workers=args.workers,
        cache=args.cache,
        cache_dir=args.cache_dir,
        l1=True,
        timeout=args.timeout,
        keep_going=args.keep_going,
        checkpoint_dir=args.resume,
    )


def _fault_plan(args):
    """The ``--fault-plan`` flag as a :class:`FaultPlan` (or None)."""
    if args.fault_plan is None:
        return None
    return FaultPlan.load(args.fault_plan)


def _steps(args, default: int = _DEFAULT_SIM_STEPS) -> int:
    return args.sim_steps if args.sim_steps is not None else default


def _print_failures(rows) -> None:
    """Render keep-going failures distinctly below a study's table."""
    if not rows:
        return
    print("\nFailed grid points (kept by --keep-going):")
    for label, detail, fp in rows:
        print(f"  [FAILED] {label} {detail}: {fp.error_type}: {fp.error} "
              f"(after {fp.attempts} attempt(s))")


def _failed(grid, detail: str = "{}") -> list:
    """``(row, detail, FailedPoint)`` for each point of a ``{row:
    {column: outcome}}`` grid that produced no result (keep-going)."""
    return [
        (row, detail.format(column), r)
        for row, series in grid.items()
        for column, r in series.items()
        if not isinstance(r, ExperimentResult)
    ]


def _solutions_failed(outcome) -> list:
    """:func:`_failed` for the flat ``(runtime, config)`` grid of §B.1."""
    return _failed({
        rt: {f"{r}x{t}": outcome.results[(rt, (r, t))]
             for r, t in outcome.configs}
        for rt in outcome.runtimes
    })


def _report(failed, check=None) -> bool:
    """Print the verdicts of ``check()`` — or, when keep-going left
    failed points, the one verdict that the grid is incomplete — then
    list the failures."""
    verdicts = {"all_points_completed": False} if failed else check()
    print("\n" + verdict_lines(verdicts))
    _print_failures(failed)
    return all(verdicts.values())


def _fig1(args) -> bool:
    outcome = ContainerSolutionsStudy(
        sim_steps=_steps(args), executor=args.executor,
        fault_plan=_fault_plan(args),
    ).run()
    print("Fig. 1 — artery CFD on Lenox, average elapsed time [s]\n")
    print(fig1_table(outcome))
    return _report(_solutions_failed(outcome), lambda: check_fig1(outcome))


def _eval1(args) -> bool:
    outcome = ContainerSolutionsStudy(
        configs=((28, 4),), sim_steps=_steps(args),
        executor=args.executor, fault_plan=_fault_plan(args),
    ).run()
    rows = outcome.deployment_rows()
    print("§B.1 — deployment overhead, image size, execution time\n")
    print(deployment_table(rows))
    return _report(
        _solutions_failed(outcome), lambda: check_deployment(rows)
    )


def _fig2(args) -> bool:
    fig2 = PortabilityStudy(
        sim_steps=_steps(args), executor=args.executor,
        fault_plan=_fault_plan(args),
    ).run_fig2()
    print("Fig. 2 — artery CFD on CTE-POWER, elapsed time [s]\n")
    print(fig2_table(fig2))
    return _report(_failed(fig2, "{}n"), lambda: check_fig2(fig2))


def _eval2(args) -> bool:
    results, errors = PortabilityStudy(
        sim_steps=_steps(args), executor=args.executor,
        fault_plan=_fault_plan(args),
    ).run_three_archs()
    print("§B.2 — one case, three architectures (Singularity)\n")
    print(archs_table(results))
    print("\nForeign-image rejections (why images are rebuilt per ISA):")
    for machine, error in errors.items():
        print(f"  {machine}: {error}")
    failed = _failed(results)
    return _report(failed) if failed else len(errors) == 2


def _fig3(args) -> bool:
    outcome = ScalabilityStudy(
        sim_steps=_steps(args), executor=args.executor,
        fault_plan=_fault_plan(args),
    ).run()
    print("Fig. 3 — artery FSI on MareNostrum4, speedup vs 4 nodes\n")
    print(fig3_table(outcome))
    return _report(
        _failed(outcome.results, "{}n"), lambda: check_fig3(outcome)
    )


def _faults(args) -> bool:
    # The fault study needs enough steps for communication to dominate
    # the fault window; 8 is its validated default (docs/faults.md).
    out = FaultSensitivityStudy(
        sim_steps=_steps(args, default=8), executor=args.executor
    ).run()
    print("Fault sensitivity — CTE-POWER, link degradation x image flavour\n")
    print(fault_table(out))
    print(f"\nfault window (simulated clock span): {out.window:.4f} s")
    return _report(
        [(label, f"rate={rate:g}", fp) for label, rate, fp in out.failed()],
        lambda: check_fault_sensitivity(out),
    )


def _microbench(args) -> bool:
    from repro.hardware.network import NetworkPath
    from repro.mpi.microbench import DEFAULT_SIZES, ping_pong

    spec = catalog.MARENOSTRUM4
    print(f"Ping-pong one-way latency on {spec.name} [us]\n")
    tables = {
        path: ping_pong(spec, path, sizes=DEFAULT_SIZES)
        for path in NetworkPath
    }
    rows = []
    for i, size in enumerate(DEFAULT_SIZES):
        rows.append(
            [f"{int(size)} B"]
            + [tables[p][i].latency_seconds * 1e6 for p in NetworkPath]
        )
    print(ascii_table(["message"] + [p.value for p in NetworkPath], rows))
    # The ordering that generates every figure in the paper:
    ok = all(
        tables[NetworkPath.HOST_NATIVE][i].latency_seconds
        < tables[NetworkPath.TCP_FALLBACK][i].latency_seconds
        < tables[NetworkPath.BRIDGE_NAT][i].latency_seconds
        for i in range(len(DEFAULT_SIZES))
    )
    print(f"\npath ordering native < fallback < bridge: "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


def _trace(args) -> bool:
    import json
    from pathlib import Path

    from repro.core.runner import ExperimentRunner
    from repro.obs import (
        Observability,
        metrics_csv,
        metrics_dump,
        trace_digest,
        write_chrome_trace,
    )

    spec = args.trace_spec
    obs = Observability()
    result = ExperimentRunner().run(spec, obs=obs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(out / "trace.json", obs)
    (out / "metrics.json").write_text(
        json.dumps(metrics_dump(obs), indent=2, sort_keys=True) + "\n"
    )
    (out / "metrics.csv").write_text(metrics_csv(obs))
    digest = trace_digest(obs)
    (out / "digest.txt").write_text(digest + "\n")

    print(f"Traced {spec.name}: {spec.n_nodes} nodes x "
          f"{spec.ranks_per_node} ranks on {spec.cluster.name}\n")
    rows = [[name, seconds] for name, seconds in result.phases.items()]
    print(ascii_table(["phase", "seconds"], rows))
    phase_sum = sum(result.phases.values())
    recon = abs(phase_sum - result.elapsed_seconds) <= 1e-6 * max(
        1.0, result.elapsed_seconds
    )
    print(f"\nelapsed_seconds : {result.elapsed_seconds:.6f}")
    print(f"sum of phases   : {phase_sum:.6f}  "
          f"({'reconciles' if recon else 'MISMATCH'})")
    print(f"spans / records : {len(obs.spans.spans)} / "
          f"{len(obs.records.records)}")
    print(f"trace digest    : {digest}")
    print(f"\nwrote {out / 'trace.json'} (load in https://ui.perfetto.dev),")
    print(f"      {out / 'metrics.json'}, {out / 'metrics.csv'}, "
          f"{out / 'digest.txt'}")
    return recon


def _scaling(args) -> bool:
    from repro.core.study_ext import WorkloadScalingStudy
    from repro.workloads import get_workload

    bounds = get_workload(args.workload)
    ok = True
    for mode in ("strong", "weak"):
        out = WorkloadScalingStudy(
            workload=args.workload,
            mode=mode,
            sim_steps=_steps(args),
            executor=args.executor,
            fault_plan=_fault_plan(args),
        ).run()
        ideal = (
            "linear speedup" if mode == "strong" else "flat step time"
        )
        print(f"{mode.capitalize()} scaling — workload "
              f"'{args.workload}' on Lenox, four runtimes "
              f"(ideal: {ideal})\n")
        rows = []
        for label in out.results:
            series = out.series(label)
            ideal_s = out.ideal_series(label)
            for n in series:
                rows.append([
                    label, n,
                    f"{series[n]:.6f}",
                    f"{ideal_s[n]:.6f}",
                    f"{out.efficiency(label, n):.3f}",
                ])
        print(ascii_table(
            ["variant", "nodes", "step [s]", "ideal [s]", "efficiency"],
            rows,
        ))
        # Gate against the workload's documented envelope (set on its
        # registry class; see docs/workloads.md).
        for label in out.results:
            series = out.series(label)
            counts = sorted(series)
            if mode == "strong":
                effs = out.efficiencies(label)
                good = all(
                    bounds.strong_efficiency_floor <= eff <= 1.05
                    for eff in effs.values()
                )
                detail = {n: round(e, 3) for n, e in effs.items()}
                expect = (f"efficiency in "
                          f"[{bounds.strong_efficiency_floor}, 1.05]")
            else:
                growth = max(series.values()) / series[counts[0]]
                good = growth <= bounds.weak_growth_ceiling
                detail = round(growth, 2)
                expect = f"growth <= {bounds.weak_growth_ceiling}"
            if not good:
                print(f"  [FAIL] {label}: {mode} {detail} "
                      f"(documented bound: {expect})")
                ok = False
        print()
    return ok


def _claims(args) -> bool:
    from repro.core.paper_reference import claims_table

    print("Paper claims targeted by this reproduction\n")
    print(claims_table())
    print("\nRun `repro-study all` (or the named benchmark) for evidence.")
    return True


_COMMANDS: dict[str, Callable] = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "eval1": _eval1,
    "eval2": _eval2,
    "faults": _faults,
    "claims": _claims,
    "microbench": _microbench,
    "trace": _trace,
    "scaling": _scaling,
}

#: ``all`` regenerates the read-only artefacts; ``trace`` writes files,
#: ``faults`` deliberately perturbs runs, and ``scaling`` is an
#: extension study parameterised by ``--workload`` (not a paper
#: artefact), so all three only run when named explicitly.
_ALL_EXCLUDES = {"trace", "faults", "scaling"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Regenerate the evaluation artefacts of 'Containers in HPC' "
            "(Rudyy et al., 2019) on the simulator."
        ),
    )
    parser.add_argument(
        "artefact",
        choices=[*_COMMANDS, "all"],
        help="which paper artefact to regenerate",
    )
    parser.add_argument(
        "--sim-steps",
        type=int,
        default=None,
        metavar="N",
        help="time steps the simulator executes per run "
             "(default 2; 8 for the faults study)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the experiment grid "
             "(default: os.cpu_count(); 1 = serial)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reuse spec-keyed results from the cache directory "
             "(--no-cache to disable; default off)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )
    robust = parser.add_argument_group("robustness options")
    robust.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="inject faults: a JSON plan file or an inline "
             "'key=value,...' spec, e.g. 'seed=7,link_rate=20,"
             "horizon=0.4' (see docs/faults.md)",
    )
    robust.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        default=False,
        help="record failed grid points and finish the sweep instead "
             "of aborting on the first error",
    )
    robust.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="abort on the first failed grid point (default)",
    )
    robust.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="checkpoint grid progress under DIR and resume an "
             "interrupted sweep from it",
    )
    robust.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock timeout (default: none)",
    )
    parser.add_argument(
        "--workload",
        default="alya",
        metavar="NAME",
        help="registered workload for the trace/scaling artefacts "
             "(default alya; see repro.workloads)",
    )
    group = parser.add_argument_group("trace options")
    group.add_argument(
        "--fig",
        choices=["fig1", "fig3"],
        default="fig1",
        help="experiment shape to trace (default fig1)",
    )
    group.add_argument(
        "--runtime",
        choices=list(_RUNTIME_CLASSES),
        default=None,
        help="container runtime (default: docker for fig1, "
             "singularity for fig3)",
    )
    group.add_argument(
        "--nodes",
        type=int,
        default=4,
        metavar="N",
        help="nodes in the traced run (default 4)",
    )
    group.add_argument(
        "--out",
        default="repro-trace",
        metavar="DIR",
        help="output directory for trace.json/metrics.* (default repro-trace)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.sim_steps is not None and args.sim_steps < 1:
        print("error: --sim-steps must be >= 1", file=sys.stderr)
        return 2
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        print("error: --timeout must be > 0 and finite", file=sys.stderr)
        return 2
    if args.fault_plan is not None:
        try:
            FaultPlan.load(args.fault_plan)
        except (ValueError, OSError, KeyError, TypeError) as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    if args.artefact == "all":
        names = [n for n in _COMMANDS if n not in _ALL_EXCLUDES]
    else:
        names = [args.artefact]
    if args.nodes < 1:
        print("error: --nodes must be >= 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.workload != "alya":
        from repro.workloads import list_workloads

        if args.workload not in list_workloads():
            print(
                f"error: unknown --workload {args.workload!r}; "
                f"registered: {', '.join(list_workloads())}",
                file=sys.stderr,
            )
            return 2
    if args.artefact == "trace":
        # Build the traced spec up front: a runtime the figure's cluster
        # lacks, or more nodes than it has, is a usage error.
        try:
            args.trace_spec = figure_spec(
                args.fig, "trace-{fig}-{tag}{runtime}", runtime=args.runtime,
                nodes=args.nodes, sim_steps=_steps(args),
                workload=args.workload,
            )
        except (ValueError, CompatibilityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # One executor per invocation, shared by every subcommand.
    args.executor = _executor(args)
    ok = True
    for i, name in enumerate(names):
        if i:
            print("\n" + "=" * 72 + "\n")
        try:
            ok &= _COMMANDS[name](args)
        except ExecutionError as exc:
            # Fail-fast: the first failed point ends the run.
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
