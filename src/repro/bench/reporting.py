"""Benchmark reporting: paper-shaped text tables plus machine artifacts.

Each benchmark regenerates one paper table or figure as text: the same
rows and series the paper reports, with a paper-vs-measured column so the
shape comparison is one glance.  Output goes both to stdout (visible with
``pytest -s``) and to ``results/<name>.txt`` for EXPERIMENTS.md.

Alongside the prose, benchmarks write machine-readable ``BENCH_<name>.json``
files at the repo root (:func:`write_bench_json`): per-op p50/p90/p99 and
per-workload throughput, which CI diffs against ``benchmarks/baseline.json``
(see :mod:`repro.bench.gate`).  ``REPRO_BENCH_SMOKE=1`` selects reduced
iteration counts for CI — per-call costs are deterministic constants, so
the percentiles the gate compares are iteration-count-invariant.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..config import bench_smoke

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..", "..")
RESULTS_DIR = os.path.join(REPO_ROOT, "results")


def bench_scale(full: Any, smoke: Any) -> Any:
    """Pick the full-run or smoke-run flavor of a benchmark parameter."""
    return smoke if bench_smoke() else full


def write_bench_json(name: str, section: str, payload: dict[str, Any]) -> str:
    """Merge one benchmark's section into ``BENCH_<name>.json``.

    Merge-on-write lets the fig5a and fig5b modules each own a section of
    the same artifact regardless of which ran (or re-ran) last.
    """
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    data: dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    data[section] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@dataclass
class Table:
    """A fixed-column text table."""

    headers: tuple[str, ...]
    rows: list[tuple[str, ...]] = field(default_factory=list)

    def add(self, *cells: object) -> None:
        row = tuple(
            f"{c:.2f}" if isinstance(c, float) else str(c) for c in cells
        )
        if len(row) != len(self.headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(self.headers)}")
        self.rows.append(row)

    def render(self) -> str:
        all_rows = [self.headers] + self.rows
        widths = [max(len(r[i]) for r in all_rows) for i in range(len(self.headers))]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in self.rows:
            lines.append(
                "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip()
            )
        return "\n".join(lines)


def banner(title: str) -> str:
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def save_and_print(name: str, text: str) -> str:
    """Print a report and persist it under results/<name>.txt."""
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path
