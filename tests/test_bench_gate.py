"""The CI benchmark gate: regression arithmetic and exit codes."""

import json

from repro.bench.gate import TOLERANCE, compare, main

BASELINE = {
    "fig5a": {
        "getpid": {"boxed_p50_us": 14.0},
        "stat": {"boxed_p50_us": 20.0},
    },
    "fig5b": {
        "make": {"boxed_ops_per_sec": 15000.0},
    },
    "snapshot": {
        "fork_vs_boot": {"speedup_x": 25.0},
    },
    "fastlane": {
        "read_heavy": {"speedup_x": 2.5},
    },
}


def clone(payload):
    return json.loads(json.dumps(payload))


def test_identical_run_passes():
    assert compare(clone(BASELINE), BASELINE) == []


def test_faster_ratio_run_never_fails():
    current = clone(BASELINE)
    current["snapshot"]["fork_vs_boot"]["speedup_x"] = 1000.0
    current["fastlane"]["read_heavy"]["speedup_x"] = 1000.0
    assert compare(current, BASELINE) == []


def test_fig5_fields_are_held_exactly_in_both_directions():
    """fig5a/fig5b are simulated and deterministic: any move is a change
    to the simulated clock, so faster fails as surely as slower."""
    for section, name, field, value in [
        ("fig5a", "getpid", "boxed_p50_us", 1.0),
        ("fig5a", "getpid", "boxed_p50_us", 14.0 * TOLERANCE * 0.99),
        ("fig5a", "stat", "boxed_p50_us", 20.000001),
        ("fig5b", "make", "boxed_ops_per_sec", 10**6),
        ("fig5b", "make", "boxed_ops_per_sec", 14999.0),
    ]:
        current = clone(BASELINE)
        current[section][name][field] = value
        failures = compare(current, BASELINE)
        assert len(failures) == 1, (section, name, value)
        assert f"{section}/{name}" in failures[0] and field in failures[0]


def test_fig5_field_added_or_dropped_fails_naming_it():
    current = clone(BASELINE)
    current["fig5a"]["getpid"]["boxed_p99_us"] = 14.0
    del current["fig5b"]["make"]["boxed_ops_per_sec"]
    failures = compare(current, BASELINE)
    assert len(failures) == 2
    assert any("fig5a/getpid" in f and "boxed_p99_us" in f for f in failures)
    assert any("fig5b/make" in f and "boxed_ops_per_sec" in f for f in failures)


def test_latency_regression_beyond_tolerance_fails():
    current = clone(BASELINE)
    current["fig5a"]["getpid"]["boxed_p50_us"] = 14.0 * TOLERANCE * 1.01
    failures = compare(current, BASELINE)
    assert len(failures) == 1 and "fig5a/getpid" in failures[0]


def test_throughput_regression_beyond_tolerance_fails():
    current = clone(BASELINE)
    current["fig5b"]["make"]["boxed_ops_per_sec"] = 15000.0 / TOLERANCE * 0.99
    failures = compare(current, BASELINE)
    assert len(failures) == 1 and "fig5b/make" in failures[0]


def test_snapshot_speedup_regression_beyond_tolerance_fails():
    current = clone(BASELINE)
    current["snapshot"]["fork_vs_boot"]["speedup_x"] = 25.0 / TOLERANCE * 0.99
    failures = compare(current, BASELINE)
    assert len(failures) == 1 and "snapshot/fork_vs_boot" in failures[0]


def test_snapshot_speedup_within_tolerance_passes():
    current = clone(BASELINE)
    current["snapshot"]["fork_vs_boot"]["speedup_x"] = 25.0 / TOLERANCE * 1.01
    assert compare(current, BASELINE) == []


def test_fastlane_speedup_regression_beyond_tolerance_fails():
    current = clone(BASELINE)
    current["fastlane"]["read_heavy"]["speedup_x"] = 2.5 / TOLERANCE * 0.99
    failures = compare(current, BASELINE)
    assert len(failures) == 1 and "fastlane/read_heavy" in failures[0]


def test_fastlane_speedup_within_tolerance_passes():
    current = clone(BASELINE)
    current["fastlane"]["read_heavy"]["speedup_x"] = 2.5 / TOLERANCE * 1.01
    assert compare(current, BASELINE) == []


def test_missing_series_fails():
    current = clone(BASELINE)
    del current["fig5a"]["stat"]
    del current["fig5b"]["make"]
    failures = compare(current, BASELINE)
    assert len(failures) == 2
    assert any("fig5a/stat" in f and "missing" in f for f in failures)
    assert any("fig5b/make" in f and "missing" in f for f in failures)


def test_extra_series_in_current_is_ignored():
    current = clone(BASELINE)
    current["fig5a"]["newcall"] = {"boxed_p50_us": 999.0}
    assert compare(current, BASELINE) == []


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_main_exit_codes_and_output(tmp_path, capsys):
    base = _write(tmp_path, "baseline.json", BASELINE)
    good = _write(tmp_path, "good.json", clone(BASELINE))
    assert main([good, base]) == 0
    assert "OK (5 series" in capsys.readouterr().out

    bad_payload = clone(BASELINE)
    bad_payload["fig5a"]["getpid"]["boxed_p50_us"] = 100.0
    bad = _write(tmp_path, "bad.json", bad_payload)
    assert main([bad, base]) == 1
    out = capsys.readouterr().out
    assert "FAIL fig5a/getpid" in out


def test_real_artifacts_gate_clean():
    """The checked-in baseline must accept itself (CI's sanity floor)."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "baseline.json")
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    assert compare(clone(baseline), baseline) == []
    # and it covers every Figure-5 series plus the snapshot-fork pair
    assert len(baseline["fig5a"]) == 7
    assert len(baseline["fig5b"]) == 6
    assert len(baseline["snapshot"]) == 2
    # the fork baseline keeps the gate's floor at the >=20x acceptance bar
    assert baseline["snapshot"]["fork_vs_boot"]["speedup_x"] / TOLERANCE == 20.0
    # and the fast-lane baseline keeps its floor at the >=2x acceptance bar
    assert baseline["fastlane"]["read_heavy"]["speedup_x"] / TOLERANCE == 2.0


REPL_BASELINE = {
    "replication": {
        "blackout_availability": {"read_availability_pct": 100.0},
        "quorum_overhead": {"write_overhead_x": 3.0},
    },
}


def test_replication_availability_is_held_exactly():
    current = clone(REPL_BASELINE)
    # even a fraction of a percent of dropped reads fails: a blackout
    # drill losing ANY read means failover is broken, not slow
    current["replication"]["blackout_availability"]["read_availability_pct"] = 99.9
    failures = compare(current, REPL_BASELINE)
    assert len(failures) == 1 and "blackout_availability" in failures[0]
    assert compare(clone(REPL_BASELINE), REPL_BASELINE) == []


def test_replication_write_overhead_gets_the_usual_tolerance():
    current = clone(REPL_BASELINE)
    current["replication"]["quorum_overhead"]["write_overhead_x"] = (
        3.0 * TOLERANCE * 1.01
    )
    failures = compare(current, REPL_BASELINE)
    assert len(failures) == 1 and "quorum_overhead" in failures[0]
    current["replication"]["quorum_overhead"]["write_overhead_x"] = (
        3.0 * TOLERANCE * 0.99
    )
    assert compare(current, REPL_BASELINE) == []


def test_replication_rows_missing_from_current_fail():
    failures = compare({}, REPL_BASELINE)
    assert len(failures) == 2
    assert all("missing" in f for f in failures)
