"""Fuzzing throughput: warm-fork execs/sec vs cold-boot execs/sec.

The scenario fuzzer's economics rest on one fact: preparing the world a
scenario runs against costs O(size-of-world) cold but O(size-of-diff)
from a warm :meth:`~repro.kernel.machine.Machine.snapshot`.  This bench
measures that directly on the fuzzer's own syscall executor against a
populated multi-user host (96 accounts with home files plus the
pre-warmed visitor box homes — the kind of machine identity boxing is
*for*), running the same seed scenario both ways:

* ``warm`` — ``executor.execute(scenario)``: fork the template, run,
  audit containment over the CoW diff;
* ``cold`` — ``executor.execute(scenario, warm=False)``: build the whole
  template world from scratch for this one input, then run and audit.

The second measurement reports guided-campaign throughput end to end
(mutation, execution, coverage extraction, retention, survivor replay)
so the headline execs/sec number exists in one place.

Gates on the dimensionless ``speedup_x`` (the ROADMAP/ISSUE bar is
≥20x), which is stable across hosts where absolute numbers are not.

Run:  pytest benchmarks/bench_fuzz_throughput.py -s
Smoke (CI):  REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_fuzz_throughput.py -q
"""

import time

import pytest

from repro.bench import Table, banner, bench_scale, save_and_print, write_bench_json
from repro.fuzz import FuzzConfig, FuzzEngine, SyscallExecutor, seed_scenario

#: Accounts on the bench world: a populated departmental host.
BENCH_WORLD_USERS = 96

WARM_EXECS = bench_scale(full=300, smoke=50)
COLD_EXECS = bench_scale(full=12, smoke=4)
CAMPAIGN_BUDGET = bench_scale(full=200, smoke=40)

#: The acceptance bar: warm-fork execution must beat cold-boot by this.
MIN_FUZZ_SPEEDUP = 20.0


def measure_fork_vs_cold() -> dict:
    """Per-exec latency of one scenario, warm-forked vs cold-built."""
    executor = SyscallExecutor(world_users=BENCH_WORLD_USERS)
    executor.template_snapshot()  # template built outside the timed region
    scenario = seed_scenario("syscall")

    t0 = time.perf_counter()
    for _ in range(WARM_EXECS):
        executor.execute(scenario, warm=True)
    warm_s = (time.perf_counter() - t0) / WARM_EXECS

    t0 = time.perf_counter()
    for _ in range(COLD_EXECS):
        executor.execute(scenario, warm=False)
    cold_s = (time.perf_counter() - t0) / COLD_EXECS

    return {
        "warm_ms": warm_s * 1e3,
        "cold_ms": cold_s * 1e3,
        "warm_execs_per_s": 1.0 / warm_s,
        "cold_execs_per_s": 1.0 / cold_s,
        "speedup_x": cold_s / warm_s,
    }


def measure_campaign() -> dict:
    """End-to-end guided campaign throughput (everything included)."""
    t0 = time.perf_counter()
    report = FuzzEngine(
        FuzzConfig(seed=20260808, budget=CAMPAIGN_BUDGET)
    ).run()
    elapsed = time.perf_counter() - t0
    return {
        "budget": CAMPAIGN_BUDGET,
        "elapsed_s": elapsed,
        "execs_per_s": CAMPAIGN_BUDGET / elapsed,
        "edges": report["edge_count"],
        "violations": report["violations"],
    }


@pytest.fixture(scope="module")
def fuzz_results():
    return {
        "fork_vs_cold": measure_fork_vs_cold(),
        "campaign": measure_campaign(),
    }


def test_fuzz_fork_speedup(fuzz_results):
    row = fuzz_results["fork_vs_cold"]
    assert row["speedup_x"] >= MIN_FUZZ_SPEEDUP, (
        f"warm-fork fuzzing only {row['speedup_x']:.1f}x cold-boot "
        f"(bar: {MIN_FUZZ_SPEEDUP:.0f}x)"
    )


def test_fuzz_campaign_clean(fuzz_results):
    row = fuzz_results["campaign"]
    # the boundary holds under fuzzing: a violation here is a real bug
    assert row["violations"] == 0, (
        f"fuzz campaign found {row['violations']} containment violations"
    )


def test_fuzz_report(benchmark, fuzz_results):
    """Print/persist the table and the gated JSON ``fuzz`` section."""

    def build() -> str:
        fork = fuzz_results["fork_vs_cold"]
        campaign = fuzz_results["campaign"]
        table = Table(headers=("measurement", "cold", "warm fork", "speedup"))
        table.add(
            "scenario exec (ms)",
            f"{fork['cold_ms']:.2f}",
            f"{fork['warm_ms']:.3f}",
            f"{fork['speedup_x']:.1f}x",
        )
        table.add(
            "throughput (execs/s)",
            f"{fork['cold_execs_per_s']:.0f}",
            f"{fork['warm_execs_per_s']:.0f}",
            "",
        )
        table.add(
            f"guided campaign ({campaign['budget']} execs)",
            "",
            f"{campaign['execs_per_s']:.0f}/s, {campaign['edges']} edges",
            "",
        )
        write_bench_json(
            "fig5",
            "fuzz",
            {
                "fork_vs_cold": {
                    "warm_ms": round(fork["warm_ms"], 4),
                    "cold_ms": round(fork["cold_ms"], 4),
                    "speedup_x": round(fork["speedup_x"], 2),
                },
                "campaign": {
                    "budget": campaign["budget"],
                    "execs_per_s": round(campaign["execs_per_s"], 2),
                    "edges": campaign["edges"],
                    "violations": campaign["violations"],
                },
            },
        )
        text = (
            banner("Scenario fuzzing: warm-fork vs cold-boot throughput")
            + "\n"
            + table.render()
        )
        save_and_print("fuzz_throughput", text)
        return text

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    assert "speedup" in text
