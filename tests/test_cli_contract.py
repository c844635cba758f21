"""The CLI contract, table-driven: bad input never ends in a traceback.

Every ``repro-study`` subcommand and every ``repro-serve`` mode is driven
in-process with out-of-range, non-finite and incompatible values, plus
the fault paths a user can reach (a crash plan with and without
``--keep-going``, and ``--resume`` over a checkpoint holding failures).
Each case must exit 1 or 2 with no ``Traceback`` on stderr; an exception
escaping ``main`` is a traceback and fails the case.
"""

import pytest

from repro.cli import _COMMANDS
from repro.cli import main as study_main
from repro.serve.cli import main as serve_main

CRASH = "seed=1,crash_rate=50,horizon=2,max_requeues=0"

#: Input errors every subcommand shares: rejected before any run.
STUDY_BAD_VALUES = (
    ("sim-steps-0", ["--sim-steps", "0"]),
    ("sim-steps-nan", ["--sim-steps", "nan"]),
    ("workers-0", ["--workers", "0"]),
    ("timeout-0", ["--timeout", "0"]),
    ("timeout-negative", ["--timeout=-1"]),
    ("timeout-nan", ["--timeout", "nan"]),
    ("timeout-inf", ["--timeout", "inf"]),
    ("nodes-0", ["--nodes", "0"]),
    ("fault-plan-nan", ["--fault-plan", "seed=1,link_rate=nan"]),
    ("fault-plan-garbage", ["--fault-plan", "not-a-plan"]),
    ("workload-unknown", ["--workload", "no-such-workload"]),
)

STUDY_CASES = [
    pytest.param(
        [command, *values], 2, id=f"{command}-{label}"
    )
    for command in [*_COMMANDS, "all"]
    for label, values in STUDY_BAD_VALUES
] + [
    pytest.param(argv, rc, id=label)
    for label, argv, rc in (
        ("unknown-artefact", ["fig9"], 2),
        ("trace-unknown-fig", ["trace", "--fig", "fig9"], 2),
        ("trace-unknown-runtime", ["trace", "--runtime", "lxc"], 2),
        ("trace-fig3-docker",
         ["trace", "--fig", "fig3", "--runtime", "docker"], 2),
        ("trace-fig1-charliecloud",
         ["trace", "--fig", "fig1", "--runtime", "charliecloud"], 2),
        ("trace-fig1-300-nodes",
         ["trace", "--fig", "fig1", "--runtime", "bare-metal",
          "--nodes", "300"], 2),
        ("trace-fig3-too-many-nodes",
         ["trace", "--fig", "fig3", "--nodes", "100000"], 2),
        ("fig1-crash-fail-fast",
         ["fig1", "--workers", "1", "--sim-steps", "1",
          "--fault-plan", CRASH], 1),
        ("fig1-crash-fail-fast-pooled",
         ["fig1", "--workers", "2", "--sim-steps", "1",
          "--fault-plan", CRASH], 1),
        ("eval1-crash-keep-going",
         ["eval1", "--workers", "1", "--sim-steps", "1", "--keep-going",
          "--fault-plan", CRASH], 1),
        ("eval1-crash-keep-going-pooled",
         ["eval1", "--workers", "2", "--sim-steps", "1", "--keep-going",
          "--fault-plan", CRASH], 1),
    )
]


def _run(main, argv, capsys):
    """Exit code and stderr of one in-process CLI run."""
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    return rc, capsys.readouterr().err


def _assert_clean_failure(rc, err, expected_rc):
    assert "Traceback" not in err
    assert rc == expected_rc, err
    if expected_rc == 2:
        # A usage error is one line naming the problem.
        assert err.strip().splitlines()[-1].startswith(
            ("error:", "repro-study: error:", "repro-serve: error:")
        )


@pytest.mark.parametrize("argv,expected_rc", STUDY_CASES)
def test_study_cli_rejects_cleanly(argv, expected_rc, tmp_path, capsys):
    if argv[0] == "trace":
        argv = [*argv, "--out", str(tmp_path / "trace")]
    rc, err = _run(study_main, argv, capsys)
    _assert_clean_failure(rc, err, expected_rc)


def test_crash_plan_error_line_is_the_same_at_any_worker_count(capsys):
    """``--workers N`` never changes verdicts, fault failures included."""
    lines = []
    for workers in ("1", "2"):
        rc, err = _run(study_main, [
            "fig1", "--workers", workers, "--sim-steps", "1",
            "--fault-plan", CRASH,
        ], capsys)
        assert rc == 1
        lines.append([ln for ln in err.splitlines() if ln])
    assert lines[0] == lines[1]
    assert len(lines[0]) == 1 and "RankFailure" in lines[0][0]


@pytest.mark.parametrize("fail_fast", [False, True], ids=["keep-going",
                                                           "fail-fast"])
def test_resume_over_a_checkpoint_holding_failures(
    fail_fast, tmp_path, capsys
):
    ckpt = str(tmp_path / "ckpt")
    base = ["eval1", "--workers", "1", "--sim-steps", "1",
            "--fault-plan", CRASH, "--resume", ckpt]
    rc, err = _run(study_main, [*base, "--keep-going"], capsys)
    _assert_clean_failure(rc, err, 1)
    rerun = base if fail_fast else [*base, "--keep-going"]
    rc, err = _run(study_main, rerun, capsys)
    _assert_clean_failure(rc, err, 1)


SERVE_CASES = [
    pytest.param(argv, rc, id=label)
    for label, argv, rc in (
        ("no-mode", [], 2),
        ("two-modes", ["--burst", "2", "--zipf", "1.1"], 2),
        ("burst-0", ["--burst", "0"], 2),
        ("burst-negative", ["--burst=-3"], 2),
        ("burst-nodes-0", ["--burst", "2", "--nodes", "0"], 2),
        ("burst-sim-steps-0", ["--burst", "2", "--sim-steps", "0"], 2),
        ("burst-unknown-workload", ["--burst", "2", "--workload", "nope"], 2),
        ("burst-unknown-fig", ["--burst", "2", "--fig", "fig9"], 2),
        ("burst-charliecloud", ["--burst", "2", "--runtime", "charliecloud"],
         2),
        ("burst-fig3-docker",
         ["--burst", "2", "--fig", "fig3", "--runtime", "docker"], 2),
        ("burst-fig1-300-nodes", ["--burst", "2", "--nodes", "300"], 2),
        ("burst-shards-negative", ["--burst", "2", "--shards=-1"], 2),
        ("burst-max-pending-0", ["--burst", "2", "--max-pending", "0"], 2),
        ("burst-max-batch-0", ["--burst", "2", "--max-batch", "0"], 2),
        ("burst-workers-0", ["--burst", "2", "--workers", "0"], 2),
        ("zipf-negative", ["--zipf=-0.5"], 2),
        ("zipf-nan", ["--zipf", "nan"], 2),
        ("zipf-inf", ["--zipf", "inf"], 2),
        ("zipf-requests-0", ["--zipf", "1.1", "--requests", "0"], 2),
        ("zipf-universe-0", ["--zipf", "1.1", "--universe", "0"], 2),
        ("zipf-concurrency-0", ["--zipf", "1.1", "--concurrency", "0"], 2),
        ("zipf-max-retries-negative", ["--zipf", "1.1", "--max-retries=-1"],
         2),
        ("zipf-nodes-0", ["--zipf", "1.1", "--nodes", "0"], 2),
        ("zipf-unknown-workload", ["--zipf", "1.1", "--workload", "nope"], 2),
        ("cluster-zipf-universe-0",
         ["--zipf", "1.1", "--shards", "2", "--universe", "0"], 2),
        ("cluster-burst-charliecloud",
         ["--burst", "2", "--shards", "2", "--runtime", "charliecloud"], 2),
        ("cluster-burst-fig3-docker",
         ["--burst", "2", "--shards", "2", "--fig", "fig3",
          "--runtime", "docker"], 2),
    )
]


@pytest.mark.parametrize("argv,expected_rc", SERVE_CASES)
def test_serve_cli_rejects_cleanly(argv, expected_rc, capsys):
    rc, err = _run(serve_main, argv, capsys)
    _assert_clean_failure(rc, err, expected_rc)


@pytest.mark.parametrize(
    "script",
    [
        None,
        "[]",
        "{not json",
        '[{"fig": "fig1", "runtime": "charliecloud"}]',
        '[{"fig": "fig3", "runtime": "docker"}]',
        '[{"fig": "fig1", "nodes": 0}]',
        '[{"fig": "fig1", "count": 0}]',
        '[{"fig": "fig1", "delay_ms": -1}]',
        '[{"fig": "fig1", "bogus": 1}]',
    ],
    ids=["missing", "empty", "bad-json", "charliecloud", "fig3-docker",
         "nodes-0", "count-0", "negative-delay", "unknown-key"],
)
def test_serve_script_mode_rejects_cleanly(script, tmp_path, capsys):
    path = tmp_path / "script.json"
    if script is not None:
        path.write_text(script)
    rc, err = _run(serve_main, ["--script", str(path)], capsys)
    _assert_clean_failure(rc, err, 2)
