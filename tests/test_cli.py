"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_artefacts():
    parser = build_parser()
    for name in ("fig1", "fig2", "fig3", "eval1", "eval2", "faults", "all"):
        args = parser.parse_args([name])
        assert args.artefact == name
        # None = per-command default (2, or 8 for the faults study).
        assert args.sim_steps is None


def test_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig9"])


def test_sim_steps_validation(capsys):
    assert main(["fig1", "--sim-steps", "0"]) == 2


def test_eval1_command_runs(capsys):
    rc = main(["eval1", "--sim-steps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "deploy [s]" in out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_eval2_command_runs(capsys):
    rc = main(["eval2", "--sim-steps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ppc64le" in out
    assert "rebuilt per ISA" in out or "Foreign-image rejections" in out


def test_trace_command_writes_artifacts(tmp_path, capsys):
    import json

    out_dir = tmp_path / "trc"
    rc = main(["trace", "--fig", "fig1", "--sim-steps", "1",
               "--nodes", "2", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reconciles" in out
    assert "trace digest" in out
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["traceEvents"]
    phases = {e["ph"] for e in trace["traceEvents"]}
    assert {"M", "X", "i"} <= phases
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert "mpi.messages_sent" in metrics["metrics"]
    assert metrics["trace"]["spans_dropped"] == 0
    digest = (out_dir / "digest.txt").read_text().strip()
    assert len(digest) == 64
    csv = (out_dir / "metrics.csv").read_text()
    assert csv.startswith("name,kind,field,value")


def test_trace_command_bare_metal_runtime(tmp_path, capsys):
    rc = main(["trace", "--runtime", "bare-metal", "--sim-steps", "1",
               "--nodes", "2", "--out", str(tmp_path / "bm")])
    assert rc == 0
    assert "trace-fig1-bare-metal" in capsys.readouterr().out


def test_trace_nodes_validation(capsys):
    assert main(["trace", "--nodes", "0"]) == 2


def test_all_excludes_trace_and_faults():
    from repro.cli import _ALL_EXCLUDES, _COMMANDS

    assert "trace" in _COMMANDS
    assert "trace" in _ALL_EXCLUDES
    assert "faults" in _COMMANDS
    assert "faults" in _ALL_EXCLUDES
    assert "scaling" in _COMMANDS
    assert "scaling" in _ALL_EXCLUDES


def test_trace_command_accepts_a_workload(tmp_path, capsys):
    rc = main(["trace", "--workload", "stencil", "--runtime", "bare-metal",
               "--sim-steps", "1", "--nodes", "2",
               "--out", str(tmp_path / "st")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace-fig1-stencil-bare-metal" in out


def test_unknown_workload_is_a_usage_error(capsys):
    assert main(["trace", "--workload", "no-such"]) == 2
    err = capsys.readouterr().err
    assert "no-such" in err and "stencil" in err


def test_scaling_command_gates_on_documented_bounds(capsys):
    rc = main(["scaling", "--workload", "stencil", "--sim-steps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Strong scaling" in out and "Weak scaling" in out
    assert "efficiency" in out
    assert "[FAIL]" not in out


def test_timeout_validation(capsys):
    for bad in ("0", "nan", "inf", "-inf"):
        assert main(["fig1", f"--timeout={bad}"]) == 2
        assert "error: --timeout" in capsys.readouterr().err


def test_faults_command_runs(capsys):
    rc = main(["faults", "--workers", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fault sensitivity" in out
    assert "fault window" in out
    assert "[PASS] self_contained_degrades_faster" in out
    assert "[FAIL]" not in out


def test_fault_plan_flag_threads_into_a_study(capsys):
    clean = main(["eval1", "--sim-steps", "1"])
    clean_out = capsys.readouterr().out
    # A plan whose horizon covers the whole simulated span degrades
    # every containerised run; the deployment table changes.
    rc = main([
        "eval1", "--sim-steps", "1", "--fault-plan",
        "seed=3,link_rate=100,horizon=0.2,factor=0.3,duration=0.05",
    ])
    faulted_out = capsys.readouterr().out
    assert clean == rc == 0
    assert faulted_out != clean_out


def test_bad_fault_plan_spec_is_an_error(capsys):
    rc = main(["eval1", "--sim-steps", "1", "--fault-plan", "bogus=1"])
    assert rc == 2
    assert "bad --fault-plan" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_fault_plan_is_an_error(capsys, value):
    rc = main(["fig1", "--fault-plan",
               f"seed=1,link_rate={value},horizon=0.3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad --fault-plan" in err and "finite" in err


def test_keep_going_and_resume_reach_the_executor(tmp_path):
    from repro.cli import _executor, build_parser

    args = build_parser().parse_args([
        "fig1", "--keep-going", "--resume", str(tmp_path / "ck"),
        "--timeout", "30",
    ])
    ex = _executor(args)
    assert ex.keep_going is True
    assert ex.checkpoint is not None
    assert ex.timeout == 30.0
    fail_fast = build_parser().parse_args(["fig1", "--fail-fast"])
    assert _executor(fail_fast).keep_going is False
    assert _executor(fail_fast).checkpoint is None


#: Node crashes with no requeue budget: most grid points fail.
CRASHES = [
    "--workers", "1", "--sim-steps", "1",
    "--fault-plan", "seed=1,crash_rate=50,horizon=2,max_requeues=0",
]
KEEP_GOING_CRASHES = [*CRASHES, "--keep-going"]


@pytest.mark.parametrize("command", ["fig1", "fig2", "eval1", "eval2", "fig3"])
def test_keep_going_reports_failed_points_instead_of_crashing(
    command, capsys
):
    # Node crashes with no requeue budget fail most grid points; the
    # report stage must render them, not trip over them.
    rc = main([command, *KEEP_GOING_CRASHES])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED(RankFailure)" in out
    assert "[FAIL] all_points_completed" in out
    assert "Failed grid points (kept by --keep-going):" in out
    assert "[FAILED] " in out


def _run_cli(*argv):
    """``repro-study argv`` in a fresh interpreter, as a user runs it."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("resumed", [False, True])
def test_fail_fast_failure_is_one_error_line(tmp_path, resumed):
    """Fail-fast ends at the first failed point with exit 1 and one
    ``error:`` line naming it, with no traceback, whether the failure
    is executed or replayed from a keep-going run's checkpoint."""
    resume = []
    if resumed:
        resume = ["--resume", str(tmp_path / "ck")]
        assert main(["fig1", *KEEP_GOING_CRASHES, *resume]) == 1
    proc = _run_cli("fig1", *CRASHES, "--fail-fast", *resume)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: grid point 'fig1-bare-metal-8x14'")
    assert "RankFailure" in lines[0]


def test_all_runs_each_spec_once(monkeypatch, capsys):
    # eval1's four 28x4 points are fig1's: the subcommands of one
    # invocation share an executor whose in-process memo answers them.
    from collections import Counter

    from repro.core.metrics import ExperimentResult
    from repro.core.runner import ExperimentRunner

    ran = Counter()

    def record(self, spec, obs=None):
        ran[spec.name] += 1
        return ExperimentResult(
            spec_name=spec.name, runtime_name=spec.runtime_name,
            cluster_name=spec.cluster.name, n_nodes=spec.n_nodes,
            total_ranks=spec.total_ranks,
            threads_per_rank=spec.threads_per_rank,
            avg_step_seconds=1.0, elapsed_seconds=1.0,
        )

    monkeypatch.setattr(ExperimentRunner, "run", record)
    main(["all", "--workers", "1"])
    capsys.readouterr()
    assert ran["fig1-docker-28x4"] == 1
    assert set(ran.values()) == {1}
    # fig1 20 + fig2 33 + fig3 21 + eval2 6; eval1 adds none.
    assert sum(ran.values()) == 80
