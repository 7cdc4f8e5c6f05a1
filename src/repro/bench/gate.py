"""CI regression gate: diff ``BENCH_fig5.json`` against the baseline.

Usage (what the CI ``bench`` job runs after the Fig. 5 benchmarks)::

    PYTHONPATH=src python -m repro.bench.gate BENCH_fig5.json benchmarks/baseline.json

The gate is the row table :data:`ROWS`, one ``(section, field)`` rule per
row, checked on every series the baseline holds in that section (exit 1
on any failure).  A series missing from the current run fails (a silently
skipped benchmark is a regression too); one the baseline lacks is ignored.

* fig5a, fig5b are simulated and deterministic: any field that moved, in
  either direction, or was added or dropped, fails.  A change that means
  to move one refreshes the baseline (the ``REPRO_BENCH_SMOKE=1`` run CI
  makes) in the same commit.
* Elsewhere only a regression beyond 25% fails: the federation's
  aggregate throughput per shard count, and the dimensionless (so
  host-stable) speedups of snapshot fork, fuzz warm fork and the fast
  lane, whose baselines put their floors at the acceptance bars (25x to
  20x, 25x to 20x, 2.5x to 2x); the quorum-write overhead may not grow.
* Read availability during a single-replica blackout is held exactly: a
  dropped read is a broken failover, not a slowdown.

Refresh the baseline in the change that earns a speedup, so the new level
is held.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

#: >25% worse than baseline fails the gate.
TOLERANCE = 1.25

#: ``better`` is ``exact`` (field ``*``: every field of the series),
#: ``higher`` (fails below baseline / tolerance) or ``lower`` (fails above
#: baseline * tolerance); a row covers the series whose baseline has its field.
ROWS = (
    {"section": "fig5a", "field": "*", "better": "exact", "tolerance": 1.0},
    {"section": "fig5b", "field": "*", "better": "exact", "tolerance": 1.0},
    {"section": "federation", "field": "ops_per_sec", "better": "higher", "tolerance": TOLERANCE},
    {"section": "snapshot", "field": "speedup_x", "better": "higher", "tolerance": TOLERANCE},
    {"section": "fuzz", "field": "speedup_x", "better": "higher", "tolerance": TOLERANCE},
    {"section": "fastlane", "field": "speedup_x", "better": "higher", "tolerance": TOLERANCE},
    {"section": "replication", "field": "read_availability_pct", "better": "higher",
     "tolerance": 1.0},
    {"section": "replication", "field": "write_overhead_x", "better": "lower",
     "tolerance": TOLERANCE},
)

#: Every section the gate reads.
SECTIONS = tuple(dict.fromkeys(row["section"] for row in ROWS))


def _load(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _check(field: str, got: Any, want: Any, better: str, tolerance: float) -> str:
    """How ``got`` fails against ``want`` under one row's rule, or ""."""
    if better == "exact":
        return "" if got == want else f"{field} is {got!r}, baseline {want!r} (held exactly)"
    if got is None:
        return f"{field} missing from current run"
    if better == "higher" and got < want / tolerance:
        return f"{field} {got:.2f} below {want / tolerance:.2f} (baseline {want:.2f})"
    if better == "lower" and got > want * tolerance:
        return f"{field} {got:.2f} over {want * tolerance:.2f} (baseline {want:.2f})"
    return ""


def compare(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Every way ``current`` regressed from ``baseline``, as messages."""
    failures: list[str] = []
    for rule in ROWS:
        section, field = rule["section"], rule["field"]
        for name, base_row in sorted(baseline.get(section, {}).items()):
            if field != "*" and field not in base_row:
                continue
            row = current.get(section, {}).get(name)
            if row is None:
                failures.append(f"{section}/{name}: missing from current run")
                continue
            fields = sorted(base_row.keys() | row.keys()) if field == "*" else [field]
            for each in fields:
                failure = _check(
                    each, row.get(each), base_row.get(each), rule["better"], rule["tolerance"]
                )
                if failure:
                    failures.append(f"{section}/{name}: {failure}")
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
