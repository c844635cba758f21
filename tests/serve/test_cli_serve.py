"""The ``repro-serve`` entry point and its request dialect."""

import json

import pytest

from repro.serve.cli import build_parser, main
from repro.serve.requests import build_spec, parse_request, parse_script


def test_burst_mode_single_flight_end_to_end(capsys):
    rc = main([
        "--burst", "16", "--fig", "fig1", "--nodes", "2",
        "--expect-dedupe", "15", "--expect-max-executed", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "drain clean" in out
    assert "deduped (single-flight)" in out
    assert "latency p99 [ms]" in out


def test_script_mode_replays_and_dumps_json(tmp_path, capsys):
    script = tmp_path / "replay.json"
    script.write_text(json.dumps([
        {"fig": "fig1", "nodes": 2, "count": 6},
        {"fig": "fig1", "nodes": 2, "count": 2, "runtime": "singularity"},
    ]))
    report = tmp_path / "report.json"
    rc = main([
        "--script", str(script), "--json", str(report),
        "--expect-dedupe", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Replayed 8 request(s) in 2 group(s)" in out
    payload = json.loads(report.read_text())
    assert payload["drained_clean"] is True
    assert payload["tally"]["ok"] == 8
    # 6 identical + 2 identical -> 2 unique flights.
    assert payload["serve"]["flights"] == 2
    assert payload["serve"]["dedup_hits"] == 6
    assert set(payload["serve"]["latency"]) == {"p50", "p95", "p99"}


def _strict_json(text):
    """``json.loads`` that rejects the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_json_report_is_strict_json_when_a_shard_sees_no_requests(
    tmp_path, capsys
):
    # One key in a burst: every request goes to one shard, so the other
    # sees none and the max/min balance ratio is unbounded.
    report = tmp_path / "r.json"
    rc = main([
        "--burst", "8", "--fig", "fig1", "--nodes", "2",
        "--shards", "2", "--json", str(report),
    ])
    capsys.readouterr()
    assert rc == 0
    payload = _strict_json(report.read_text())
    assert sorted(payload["serve"]["requests_by_shard"]) == [0, 8]
    assert payload["serve"]["balance_ratio"] is None


def test_failed_expectation_sets_exit_code(capsys):
    rc = main(["--burst", "2", "--expect-dedupe", "99"])
    assert rc == 1
    assert "CHECK FAILED" in capsys.readouterr().err


def test_traffic_source_is_mandatory_and_exclusive(tmp_path, capsys):
    assert main([]) == 2
    script = tmp_path / "s.json"
    script.write_text("[]")
    assert main(["--script", str(script), "--burst", "4"]) == 2


def test_bad_script_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "bad.json"
    script.write_text(json.dumps([{"fig": "fig9"}]))
    assert main(["--script", str(script)]) == 2
    script.write_text(json.dumps([{"fig": "fig1", "typo_key": 1}]))
    assert main(["--script", str(script)]) == 2
    script.write_text("{not json")
    assert main(["--script", str(script)]) == 2
    assert main(["--script", str(tmp_path / "missing.json")]) == 2


def test_script_path_errors_exit_2_with_one_line_message(tmp_path, capsys):
    """Every way a --script path can be wrong is a usage error: exit 2
    and a single explanatory stderr line, never a traceback."""
    cases = {
        "missing": str(tmp_path / "nope.json"),
        "directory": str(tmp_path),
    }
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00broken")
    cases["non-utf8"] = str(binary)
    for label, path in cases.items():
        assert main(["--script", path]) == 2, label
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if ln]
        assert len(lines) == 1, (label, err)
        assert lines[0].startswith("error: bad request script"), label
        assert "Traceback" not in err, label


def test_unwritable_json_report_exits_2(tmp_path, capsys):
    script = tmp_path / "ok.json"
    script.write_text(json.dumps([{"fig": "fig3", "nodes": 4, "count": 2}]))
    bad_out = tmp_path / "no-such-dir" / "report.json"
    assert main(["--script", str(script), "--json", str(bad_out)]) == 2
    assert "cannot write --json report" in capsys.readouterr().err


def test_zipf_mode_scoreboard_and_checks(capsys):
    rc = main([
        "--zipf", "1.1", "--requests", "20", "--universe", "4",
        "--seed", "7", "--fig", "fig3", "--nodes", "4",
        "--expect-max-executed", "4", "--expect-dedupe", "16",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "zipf(s=1.1)" in out
    assert "digest" in out
    assert "L1 hits (in-memory)" in out


def test_zipf_mode_through_a_cluster(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main([
        "--zipf", "1.1", "--requests", "16", "--universe", "4",
        "--seed", "7", "--fig", "fig3", "--nodes", "4", "--shards", "2",
        "--json", str(report),
        "--expect-max-executed", "4", "--expect-dedupe", "12",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "requests by shard" in out
    payload = json.loads(report.read_text())
    assert payload["scoreboard"]["executed"] <= 4
    assert payload["serve"]["shards"] == 2
    assert sum(payload["serve"]["requests_by_shard"]) == 16


def test_zipf_digest_is_seed_stable(tmp_path):
    boards = []
    for run in range(2):
        report = tmp_path / f"r{run}.json"
        assert main([
            "--zipf", "1.1", "--requests", "12", "--universe", "3",
            "--seed", "42", "--fig", "fig3", "--nodes", "4",
            "--json", str(report),
        ]) == 0
        boards.append(json.loads(report.read_text())["scoreboard"])
    assert boards[0]["digest"] == boards[1]["digest"]
    assert boards[0]["sequence" if "sequence" in boards[0] else "requests"] \
        == boards[1]["sequence" if "sequence" in boards[1] else "requests"]


def test_zipf_validation_and_mode_exclusivity(capsys):
    assert main(["--zipf", "1.1", "--burst", "4"]) == 2
    assert main(["--zipf", "-0.5"]) == 2
    assert main(["--zipf", "nan"]) == 2
    assert main(["--zipf", "1.1", "--requests", "0"]) == 2
    assert main(["--burst", "4", "--shards", "-1"]) == 2
    assert main(["--zipf", "1.1", "--max-retries", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--max-pending", "--max-batch", "--workers"])
def test_bounds_below_one_exit_2_with_one_line_message(flag, capsys):
    assert main(["--burst", "2", flag, "0"]) == 2
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln] == [
        f"error: {flag} must be >= 1"
    ]


def test_retry_ceiling_exhaustion_reports_hint_and_exits_1(capsys):
    # One admission slot, no retries allowed: most of the concurrent
    # replay gives up immediately, and the error line must surface the
    # ceiling and the server's retry_after hint.
    rc = main([
        "--zipf", "1.1", "--requests", "12", "--universe", "6",
        "--seed", "7", "--fig", "fig3", "--nodes", "4",
        "--max-pending", "1", "--concurrency", "12",
        "--max-retries", "0",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "retry ceiling (0 retries)" in captured.err
    assert "retry_after" in captured.err
    assert "--max-retries" in captured.err


def test_parser_defaults():
    args = build_parser().parse_args(["--burst", "4"])
    assert args.max_pending == 64
    assert args.max_batch == 16
    assert args.workers == 1
    assert args.cache is False
    assert args.shards == 0
    assert args.zipf is None
    assert args.requests == 64
    assert args.universe == 8
    assert args.seed == 0
    assert args.concurrency == 32
    assert args.l1 is None
    assert args.max_retries is None  # None -> the loadgen ceiling
    assert args.self_heal is True


def test_request_dialect_strictness():
    with pytest.raises(ValueError):
        parse_request({"fig": "fig1", "count": 0})
    with pytest.raises(ValueError):
        parse_request({"fig": "fig1", "delay_ms": -1})
    with pytest.raises(ValueError):
        parse_request("not-a-dict")
    with pytest.raises(ValueError):
        parse_script([])
    with pytest.raises(ValueError):
        parse_script({"fig": "fig1"})
    group = parse_request({"fig": "fig3", "nodes": 8, "count": 3})
    assert group.count == 3
    assert group.spec.cluster.name == "MareNostrum4"


def test_build_spec_shapes_match_paper_studies():
    fig1 = build_spec("fig1", nodes=2)
    assert fig1.cluster.name == "Lenox"
    assert fig1.runtime_name == "docker"
    fig3 = build_spec("fig3", nodes=4)
    assert fig3.cluster.name == "MareNostrum4"
    assert fig3.runtime_name == "singularity"
    with pytest.raises(ValueError):
        build_spec("fig2")
    with pytest.raises(ValueError):
        build_spec("fig1", nodes=0)
    with pytest.raises(ValueError):
        build_spec("fig1", sim_steps=0)


def test_request_dialect_carries_the_workload_key():
    from repro.workloads import GraphWorkModel

    group = parse_request({"fig": "fig1", "workload": "graph", "count": 2})
    assert group.spec.workload == "graph"
    assert isinstance(group.spec.workmodel, GraphWorkModel)
    assert group.spec.name == "serve-fig1-graph-docker-n2"
    # Default stays Alya with the historical (untagged) spec name.
    plain = parse_request({"fig": "fig1"})
    assert plain.spec.workload == "alya"
    assert plain.spec.name == "serve-fig1-docker-n2"
    with pytest.raises(KeyError, match="registered"):
        parse_request({"fig": "fig1", "workload": "typo"})
