"""The command-line front end."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["explode"])


def test_quickstart(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "% whoami" in out
    assert "Freddy" in out
    assert "Permission denied" in out
    assert "DENY" in out  # the audit shows the blocked secret read


def test_survey(capsys):
    assert main(["survey"]) == 0
    out = capsys.readouterr().out
    assert "IdentityBox" in out
    assert "per user" in out


def test_workflow(capsys):
    assert main(["workflow"]) == 0
    out = capsys.readouterr().out
    assert "globus:/O=UnivNowhere/CN=Fred" in out
    assert "exec status: 0" in out
    assert "900 bytes" in out


def test_audit(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "DENY" in out and ".secret-key" in out
    assert "ALLOW" in out and "cache.bin" in out


def test_fig5a(capsys):
    assert main(["fig5a", "--iterations", "100"]) == 0
    out = capsys.readouterr().out
    assert "getpid" in out and "write-8kb" in out


def test_fig5b(capsys):
    assert main(["fig5b", "--scale", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "amanda" in out and "make" in out


def test_metrics_dumps_json_telemetry(capsys):
    import json

    assert main(["metrics", "--spans", "500"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    # the denial breakdown: the workflow's probe of the protected ACL
    # file is refused with EACCES, and that shows up by errno
    assert snapshot["denials"].get("EACCES", 0) >= 1
    # counters from both surfaces of the one pipeline...
    counters = snapshot["counters"]
    assert any(k.startswith("client.calls") for k in counters)
    assert any("surface=chirp" in k for k in counters)
    assert any("surface=syscall" in k for k in counters)
    # ...histograms with percentiles...
    hist = next(iter(snapshot["histograms"].values()))
    assert {"count", "p50_ns", "p90_ns", "p99_ns"} <= set(hist)
    # ...and one trace stitching the remote exec to its boxed syscalls
    spans = snapshot["spans"]
    rpc = next(s for s in spans if s["name"] == "rpc:exec")
    remote = next(s for s in spans if s["name"] == "chirp:exec")
    assert remote["trace_id"] == rpc["trace_id"]
    assert remote["parent_id"] == rpc["span_id"]
    assert any(
        s["name"] == "syscall:write" and s["parent_id"] == remote["span_id"]
        for s in spans
    )
    # ...plus the replication drill: one replica went dark and came back,
    # so every repl.* stage shows up with live numbers
    repl = snapshot["replication"]
    assert repl["quorum_writes"] >= 1  # the write that quorumed past it
    assert repl["marks"] == 1  # ...and marked the dark replica
    assert repl["failover_reads"] >= 1  # a live replica answered the read
    assert repl["repairs"] == 1  # the rejoin ran anti-entropy once
    assert repl["quorum_failures"] == 0
    # ...and the fast-lane drill: a memoized re-read, an invalidation, a
    # coalesced envelope, and a quota rejection, all with live numbers
    fast = snapshot["fastlane"]
    assert fast["cache"]["hits"] >= 1
    assert fast["cache"]["invalidations"] >= 1
    assert fast["batches"] >= 1
    assert fast["coalesced_frames"] >= 2
    assert fast["quota"]["rejected"] >= 1
    assert fast["quota"]["exhausted"]  # the drained principal, by name


def test_fuzz_writes_artifacts_and_exits_clean(tmp_path, capsys):
    import json

    out_dir = tmp_path / "fuzz-out"
    argv = ["fuzz", "--seed", "7", "--budget", "25", "--out", str(out_dir)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "25 execs" in stdout
    report = json.loads((out_dir / "report.json").read_text())
    assert report["seed"] == 7
    assert report["executions"] == 25
    assert report["violations"] == 0
    assert not list(out_dir.glob("reproducer-*.json"))
    corpus = json.loads((out_dir / "corpus.json").read_text())
    coverage = json.loads((out_dir / "coverage.json").read_text())
    assert report["corpus"] == corpus
    assert report["coverage"] == coverage


def test_fuzz_is_deterministic_across_invocations(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        argv = ["fuzz", "--seed", "3", "--budget", "20", "--out", str(out_dir)]
        assert main(argv) == 0
        blobs.append((out_dir / "report.json").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
