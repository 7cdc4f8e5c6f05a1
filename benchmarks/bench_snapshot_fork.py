"""World snapshots: O(size-of-diff) fork-from-checkpoint vs cold boot.

Two host-side (real wall-clock) measurements of the copy-on-write
snapshot layer:

* ``fork_vs_boot`` — cold-booting the standard workload world (machine,
  user, work directory, input/output/bench/meta files) versus
  ``Machine(snapshot=...)``-forking a warm template of the same world.
  The ROADMAP acceptance bar is a ≥20x fork speedup.
* ``suite_batch`` — a simulated test session: N cases, each needing a
  prepared world plus a short case body (stat + read + write), run with
  per-case cold preparation versus one warm template forked per case
  (how ``tests/helpers.make_machine`` hands out test machines, template
  construction included).  This is the honest shape of the saving: world
  *preparation* is what forking removes, so the win scales with how much
  of a case is setup rather than workload — large for unit-test-sized
  cases, small for long application runs.

Both gate on the dimensionless ``speedup_x`` ratios, which are stable
across host machines where absolute milliseconds are not.

Run:  pytest benchmarks/bench_snapshot_fork.py -s
Smoke (CI):  REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_snapshot_fork.py -q
"""

import gc
import time

import pytest

from repro.bench import Table, banner, bench_scale, save_and_print, write_bench_json
from repro.kernel.machine import Machine
from repro.kernel.vfs import join
from repro.workloads import runner
from repro.workloads.base import BLOCK, INPUT_FILE, OUTPUT_FILE
from repro.workloads.runner import WORKDIR

BOOT_REPS = bench_scale(full=150, smoke=30)
#: Cases in the simulated test session.
CASES = bench_scale(full=300, smoke=60)

#: The acceptance bar for fork-from-checkpoint (see ROADMAP / ISSUE).
MIN_FORK_SPEEDUP = 20.0


def measure_fork_vs_boot() -> dict:
    """Per-boot latency: cold workload-world preparation vs snapshot fork.

    Timed with the cyclic collector off, as ``timeit`` does.  A fork
    loop lasts well under a millisecond, so one collection of the heap
    the earlier benchmarks in the session left behind, landing in one
    loop and not the other, would swing the ratio several-fold.
    """
    machine = None
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(BOOT_REPS):
            machine, _cred = runner._prepare(None, None)
        cold_s = (time.perf_counter() - t0) / BOOT_REPS
        snap = machine.snapshot()
        t0 = time.perf_counter()
        for _ in range(BOOT_REPS):
            Machine(snapshot=snap)
        fork_s = (time.perf_counter() - t0) / BOOT_REPS
    finally:
        gc.enable()
    return {
        "cold_boot_ms": cold_s * 1e3,
        "fork_ms": fork_s * 1e3,
        "speedup_x": cold_s / fork_s,
    }


def _case_body(machine: Machine, cred) -> None:
    """A representative unit-test-sized case against a prepared world."""
    task = machine.host_task(cred, cwd=WORKDIR)
    machine.kcall_x(task, "stat", INPUT_FILE)
    data = machine.read_file(task, join(WORKDIR, INPUT_FILE))
    machine.write_file(task, join(WORKDIR, OUTPUT_FILE), data[:BLOCK])


def measure_suite_batch() -> dict:
    """Wall-clock of an N-case session, per-case cold prep vs per-case fork."""
    t0 = time.perf_counter()
    for _ in range(CASES):
        machine, cred = runner._prepare(None, None)
        _case_body(machine, cred)
    cold_s = time.perf_counter() - t0

    template = None
    t0 = time.perf_counter()
    for _ in range(CASES):
        if template is None:  # the first iteration pays template construction
            template = runner._prepare(None, None)[0].snapshot()
        machine = Machine(snapshot=template)
        _case_body(machine, machine.users.credentials_for("grid"))
    forked_s = time.perf_counter() - t0
    return {
        "cold_s": cold_s,
        "forked_s": forked_s,
        "speedup_x": cold_s / forked_s,
        "cases": CASES,
    }


@pytest.fixture(scope="module")
def snapshot_results():
    return {
        "fork_vs_boot": measure_fork_vs_boot(),
        "suite_batch": measure_suite_batch(),
    }


def test_fork_speedup(benchmark, snapshot_results):
    row = snapshot_results["fork_vs_boot"]
    benchmark.extra_info["cold_boot_ms"] = round(row["cold_boot_ms"], 4)
    benchmark.extra_info["fork_ms"] = round(row["fork_ms"], 4)
    benchmark.extra_info["speedup_x"] = round(row["speedup_x"], 1)
    benchmark.pedantic(measure_fork_vs_boot, rounds=1, iterations=1)
    assert row["speedup_x"] >= MIN_FORK_SPEEDUP, (
        f"fork only {row['speedup_x']:.1f}x faster than cold boot "
        f"(bar: {MIN_FORK_SPEEDUP:.0f}x)"
    )


def test_suite_batch_faster(snapshot_results):
    row = snapshot_results["suite_batch"]
    # template forking must clearly win even paying for the template build
    assert row["speedup_x"] > 1.5, (
        f"snapshot session only {row['speedup_x']:.2f}x: "
        f"{row['forked_s']:.2f}s forked vs {row['cold_s']:.2f}s cold"
    )


def test_snapshot_report(benchmark, snapshot_results):
    """Print/persist the table and the gated JSON ``snapshot`` section."""

    def build() -> str:
        fork = snapshot_results["fork_vs_boot"]
        suite = snapshot_results["suite_batch"]
        table = Table(headers=("measurement", "cold", "forked", "speedup"))
        table.add(
            "world boot (ms)",
            f"{fork['cold_boot_ms']:.3f}",
            f"{fork['fork_ms']:.4f}",
            f"{fork['speedup_x']:.1f}x",
        )
        table.add(
            f"{suite['cases']}-case session (s)",
            f"{suite['cold_s']:.2f}",
            f"{suite['forked_s']:.2f}",
            f"{suite['speedup_x']:.2f}x",
        )
        write_bench_json(
            "fig5",
            "snapshot",
            {
                "fork_vs_boot": {
                    "cold_boot_ms": round(fork["cold_boot_ms"], 4),
                    "fork_ms": round(fork["fork_ms"], 4),
                    "speedup_x": round(fork["speedup_x"], 2),
                },
                "suite_batch": {
                    "cold_s": round(suite["cold_s"], 4),
                    "forked_s": round(suite["forked_s"], 4),
                    "speedup_x": round(suite["speedup_x"], 3),
                },
            },
        )
        text = (
            banner("World snapshots: fork-from-checkpoint vs cold boot")
            + "\n"
            + table.render()
        )
        save_and_print("snapshot_fork", text)
        return text

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    assert "speedup" in text
