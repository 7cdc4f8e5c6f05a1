"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.harness import SIM_CATEGORIES, measure
from benchmarks.e2e.tracing import LAYERS
from benchmarks.e2e.workloads import WORKLOADS, ChirpRead
from repro.chirp import ChirpClient
from repro.core.box import IdentityBox
from repro.core.pipeline import ReadCache
from repro.core.telemetry import TracingInterceptor

RUN = Path(__file__).resolve().parent / "run.py"


@pytest.fixture(autouse=True)
def no_knobs(monkeypatch):
    """In-process runs see the environment the subprocess runs scrub."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)


def run_smoke(workload: str, seed: int = 1) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_failures(workload):
    result, detail = run_smoke(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert detail["fail_ratio"] == 0
    assert set(result["metrics"]) == {"ops_per_s", "op_p50_us", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["chirp_sessions", "fed_rw"])
def test_same_seed_same_replies_and_sim_time(workload):
    (_, first), (_, second) = run_smoke(workload, 7), run_smoke(workload, 7)
    assert first["digest"] == second["digest"]
    assert first["sim_us_per_op"] == second["sim_us_per_op"]


def test_other_seed_changes_op_stream():
    streams = []
    for seed in (1, 2):
        wl = ChirpRead(seed, smoke=True)
        wl.setup()
        streams.append([(op.kind, op.who, op.args) for op in wl.make_round(0)])
    assert streams[0] != streams[1]


@pytest.mark.parametrize("workload", ["chirp_sessions", "boxed_make"])
def test_traced_self_times_sum_to_root(workload):
    result, detail = measure(workload, 3, 1.0, trace=True, smoke=True)
    layers = result["metrics"]
    assert result["failed"] == 0
    assert abs(layers["bench.self_sum_error_pct"]["value"]) < 2
    sim_ns = sum(layers[f"kernel.timing.sim_ns_per_op.{c}"]["value"] for c in SIM_CATEGORIES)
    assert sim_ns == pytest.approx(layers["kernel.timing.sim_us_per_op"]["value"] * 1e3)
    assert layers["bench.trace_overhead_pct"]["value"] != 0


def test_traced_run_restores_every_wrapped_function():
    wl = ChirpRead(1, smoke=True)
    wl.setup()
    owners = [(owner, name) for entries in LAYERS.values() for owner, names, _ in entries
              for name in names]
    owners += [
        (wl.handler_classes()[0], "handle"),
        (ReadCache, "invalidate_paths"),
        (TracingInterceptor, "__call__"),
        (IdentityBox, "spawn"),
    ]
    before = {(owner, name): vars(owner)[name] for owner, name in owners}
    measure("chirp_read", 1, 1.0, trace=True, smoke=True)
    assert all(vars(owner)[name] is original for (owner, name), original in before.items())


def test_planted_wrong_answer_counts_as_failure(monkeypatch):
    get = ChirpClient.get
    monkeypatch.setattr(ChirpClient, "get", lambda self, path: get(self, path)[:-1])
    result, detail = measure("chirp_read", 1, 1.0, smoke=True)
    assert not result["correct"]
    assert detail["fail_ratio"] > 0
