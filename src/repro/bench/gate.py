"""CI regression gate: diff ``BENCH_fig5.json`` against the baseline.

Usage (what the CI ``bench`` job runs after the Fig. 5 benchmarks)::

    PYTHONPATH=src python -m repro.bench.gate BENCH_fig5.json benchmarks/baseline.json

The gate fails (exit 1) when a simulated Figure-5 number moved at all, or
when the reproduction got meaningfully *slower* than the checked-in
baseline elsewhere:

* fig5a, fig5b — any field of any op or workload that differs from the
  baseline, in either direction.  Every field there is simulated time
  (or derived from it) and deterministic, so a difference is a change to
  the simulated clock, never noise; a change that means to move it
  refreshes the baseline in the same commit.  The baseline holds the
  ``REPRO_BENCH_SMOKE=1`` run, the one CI makes.
* federation — any shard count whose aggregate throughput fell >25 %
  (this is what holds the 1-vs-8-shard scaling claim),
* snapshot — any fork-from-checkpoint measurement whose speedup ratio
  over cold boot fell >25 % below baseline (``speedup_x`` is
  dimensionless, so this gate is stable across host machines; the
  baseline of 25x for ``fork_vs_boot`` makes the floor the ≥20x
  acceptance bar),
* fuzz — the scenario fuzzer's warm-fork vs cold-boot ``speedup_x``,
  gated the same dimensionless way (baseline 25x → floor 20x: the
  ISSUE's warm-fork throughput bar),
* fastlane — the read-heavy ops/sec ratio with the fast lane (read
  cache + frame coalescing) on vs off, gated on the dimensionless
  ``speedup_x`` (baseline 2.5x → floor 2x: the fast-lane acceptance
  bar),
* replication — read availability during a single-replica blackout at
  three replicas must not fall below baseline *at all* (the baseline is
  100%, and availability is a correctness bar, not a perf number), and
  the quorum-write overhead ratio vs one replica must not grow >25%.

It also fails when an op/workload present in the baseline is missing from
the current run (a silently skipped benchmark is a regression too).
Outside fig5a/fig5b, getting *faster* never fails; refresh the baseline in
the same change that earns the speedup so the new level is held.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

#: >25% worse than baseline fails the gate.
TOLERANCE = 1.25

#: The higher-is-better rows: ``(section, field)``; a row whose field fell
#: more than 25% below its baseline fails.
FLOORS = (
    ("federation", "ops_per_sec"),
    ("snapshot", "speedup_x"),
    ("fuzz", "speedup_x"),
    ("fastlane", "speedup_x"),
)

#: Every section the gate reads.
SECTIONS = ("fig5a", "fig5b", *(section for section, _ in FLOORS), "replication")


def _load(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Every way ``current`` regressed from ``baseline``, as messages."""
    failures: list[str] = []
    for section in ("fig5a", "fig5b"):
        for name, base_row in sorted(baseline.get(section, {}).items()):
            row = current.get(section, {}).get(name)
            if row is None:
                failures.append(f"{section}/{name}: missing from current run")
                continue
            for field in sorted(base_row.keys() | row.keys()):
                got, want = row.get(field), base_row.get(field)
                if got != want:
                    failures.append(
                        f"{section}/{name}: {field} is {got!r}, baseline {want!r} "
                        "(simulated, held exactly)"
                    )
    for section, field in FLOORS:
        for name, base_row in sorted(baseline.get(section, {}).items()):
            row = current.get(section, {}).get(name)
            if row is None:
                failures.append(f"{section}/{name}: missing from current run")
                continue
            floor = base_row[field] / TOLERANCE
            if row[field] < floor:
                failures.append(
                    f"{section}/{name}: {field} {row[field]:.2f} below "
                    f"{floor:.2f} (baseline {base_row[field]:.2f} -25%)"
                )
    base_avail = baseline.get("replication", {}).get("blackout_availability")
    if base_avail is not None:
        row = current.get("replication", {}).get("blackout_availability")
        if row is None:
            failures.append(
                "replication/blackout_availability: missing from current run"
            )
        elif row["read_availability_pct"] < base_avail["read_availability_pct"]:
            # availability is held exactly: any dropped read during a
            # single-replica outage is a broken failover, not a slowdown
            failures.append(
                "replication/blackout_availability: "
                f"{row['read_availability_pct']:.2f}% reads available, below "
                f"the baseline {base_avail['read_availability_pct']:.2f}%"
            )
    base_quorum = baseline.get("replication", {}).get("quorum_overhead")
    if base_quorum is not None:
        row = current.get("replication", {}).get("quorum_overhead")
        if row is None:
            failures.append("replication/quorum_overhead: missing from current run")
        else:
            limit = base_quorum["write_overhead_x"] * TOLERANCE
            if row["write_overhead_x"] > limit:
                failures.append(
                    "replication/quorum_overhead: quorum writes cost "
                    f"{row['write_overhead_x']:.2f}x single-owner writes, over "
                    f"{limit:.2f}x (baseline "
                    f"{base_quorum['write_overhead_x']:.2f}x +25%)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.gate", description=__doc__.splitlines()[0]
    )
    parser.add_argument("current", help="BENCH_*.json produced by this run")
    parser.add_argument("baseline", help="checked-in benchmarks/baseline.json")
    options = parser.parse_args(argv)
    current = _load(options.current)
    baseline = _load(options.baseline)
    failures = compare(current, baseline)
    checked = sum(len(baseline.get(section, {})) for section in SECTIONS)
    if failures:
        print(f"bench gate: {len(failures)} regression(s) in {checked} series:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(
        f"bench gate: OK ({checked} series: fig5a/fig5b exact, "
        "the rest within 25% of baseline)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
