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
