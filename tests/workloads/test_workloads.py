"""Workload models and the measurement runner (Figure 5 scaffolding)."""

import gc
import weakref

import pytest

from repro.kernel.machine import Machine
from repro.kernel.timing import CostModel
from repro.workloads import runner
from repro.workloads import (
    ALL_APPS,
    AMANDA,
    MAKE,
    MICROBENCHES,
    MICROBENCH_BY_NAME,
    SCIENCE_APPS,
    measure_app,
    measure_microbench,
    run_app,
    run_microbench,
)

#: Small scale for test speed; overheads are scale-invariant by design.
SCALE = 0.002


def test_profile_roster_matches_figure_5b():
    assert [p.name for p in ALL_APPS] == ["amanda", "blast", "cms", "hf", "ibis", "make"]


def test_microbench_roster_matches_figure_5a():
    assert [s.name for s in MICROBENCHES] == [
        "getpid",
        "stat",
        "open-close",
        "read-1b",
        "read-8kb",
        "write-1b",
        "write-8kb",
    ]


def test_scaled_iters_never_zero():
    assert AMANDA.scaled_iters(1e-9) == 1
    assert MAKE.scaled_spawns(1e-9) == 1
    assert AMANDA.scaled_spawns(1.0) == 0  # science apps do not spawn


def test_runs_are_deterministic():
    a1 = run_app(AMANDA, boxed=False, scale=SCALE)
    a2 = run_app(AMANDA, boxed=False, scale=SCALE)
    assert a1 == a2


def test_boxed_run_slower_than_unmodified():
    base, _ = run_app(AMANDA, boxed=False, scale=SCALE)
    boxed, _ = run_app(AMANDA, boxed=True, scale=SCALE)
    assert boxed > base


@pytest.mark.parametrize("profile", [AMANDA, MAKE], ids=lambda p: p.name)
def test_finished_run_frees_its_world_without_the_cycle_collector(monkeypatch, profile):
    # a dead world kept for the collector holds its file bytes (the boxed
    # I/O channel's alone are megabytes), so how many pile up would depend
    # on when the interpreter happens to collect
    worlds = []
    prepare = runner._prepare

    def remembering_prepare(*args, **kwargs):
        machine, cred = prepare(*args, **kwargs)
        worlds.append(weakref.ref(machine))
        return machine, cred

    monkeypatch.setattr(runner, "_prepare", remembering_prepare)
    gc.collect()
    gc.disable()
    try:
        run_app(profile, boxed=False, scale=SCALE)
        run_app(profile, boxed=True, scale=SCALE)
        alive = [ref() is not None for ref in worlds]
    finally:
        gc.enable()
    assert alive == [False, False]


def test_overhead_roughly_scale_invariant():
    r_small = measure_app(AMANDA, scale=SCALE)
    r_big = measure_app(AMANDA, scale=SCALE * 4)
    assert r_small.overhead_pct == pytest.approx(r_big.overhead_pct, abs=0.3)


def test_make_spawns_children():
    _s, syscalls_without = run_app(AMANDA, boxed=False, scale=SCALE)
    _s2, syscalls_make = run_app(MAKE, boxed=False, scale=SCALE)
    assert syscalls_make > 0
    # make's run includes spawn + waitpid traffic
    base, n = run_app(MAKE, boxed=False, scale=0.01)
    assert n > MAKE.scaled_iters(0.01) * MAKE.syscalls_per_iter()


def test_microbench_difference_method_cancels_startup():
    per_call = run_microbench(
        MICROBENCH_BY_NAME["getpid"], boxed=False, iterations=500
    )
    # an unmodified getpid costs exactly one trap
    assert per_call == pytest.approx(0.35, abs=0.01)


def test_boxed_getpid_order_of_magnitude():
    r = measure_microbench(MICROBENCH_BY_NAME["getpid"], iterations=300)
    assert r.slowdown > 10


def test_bulk_reads_cheaper_per_byte_boxed():
    small = measure_microbench(MICROBENCH_BY_NAME["read-1b"], iterations=300)
    big = measure_microbench(MICROBENCH_BY_NAME["read-8kb"], iterations=300)
    # the channel amortizes: 8 KiB is nowhere near 8192x the 1-byte cost
    assert big.boxed_us < small.boxed_us * 10


def test_cost_model_override_plumbs_through():
    slow = CostModel().scaled(context_switch_ns=50_000)
    fast = CostModel().scaled(context_switch_ns=100)
    r_slow = run_microbench(
        MICROBENCH_BY_NAME["getpid"], boxed=True, iterations=200, costs=slow
    )
    r_fast = run_microbench(
        MICROBENCH_BY_NAME["getpid"], boxed=True, iterations=200, costs=fast
    )
    assert r_slow > 5 * r_fast


@pytest.mark.parametrize("profile", SCIENCE_APPS, ids=lambda p: p.name)
def test_science_overheads_in_paper_band(profile):
    """Each science app lands within ±40% (relative) of its paper overhead."""
    result = measure_app(profile, scale=SCALE)
    assert result.overhead_pct == pytest.approx(
        profile.paper_overhead_pct, rel=0.4, abs=0.5
    )


def test_make_overhead_in_paper_band():
    result = measure_app(MAKE, scale=SCALE)
    assert 25.0 < result.overhead_pct < 45.0


def test_science_vs_build_ordering():
    """The paper's qualitative claim: metadata-bound builds suffer far more."""
    make_result = measure_app(MAKE, scale=SCALE)
    for profile in SCIENCE_APPS:
        science_result = measure_app(profile, scale=SCALE)
        assert make_result.overhead_pct > 3 * science_result.overhead_pct


def test_snapshot_templates_measure_identically(monkeypatch):
    """Forked-template runs return byte-identical measurements to cold boots.

    The measurement protocol demands identical fresh machines per run; a
    fork of an immutable template must be indistinguishable from a cold
    boot in every reported number.
    """
    cold = measure_app(MAKE, scale=SCALE)

    prepare = runner._prepare
    templates = {}

    def forked_prepare(profile, costs):
        if profile not in templates:
            templates[profile] = prepare(profile, costs)[0].snapshot()
        machine = Machine(snapshot=templates[profile])
        return machine, machine.users.credentials_for("grid")

    monkeypatch.setattr(runner, "_prepare", forked_prepare)
    first = measure_app(MAKE, scale=SCALE)   # builds the template
    second = measure_app(MAKE, scale=SCALE)  # pure fork path
    assert list(templates) == [MAKE]
    for warm in (first, second):
        assert warm.base_s == cold.base_s
        assert warm.boxed_s == cold.boxed_s
        assert warm.base_syscalls == cold.base_syscalls
        assert warm.boxed_syscalls == cold.boxed_syscalls


def test_app_rates_are_syscalls_per_simulated_second():
    result = runner.AppResult("x", base_s=2.0, boxed_s=4.0, base_syscalls=100, boxed_syscalls=100)
    assert (result.base_ops_per_sec, result.boxed_ops_per_sec) == (50.0, 25.0)
    idle = runner.AppResult("idle", base_s=0.0, boxed_s=0.0, base_syscalls=0, boxed_syscalls=0)
    assert (idle.base_ops_per_sec, idle.boxed_ops_per_sec) == (0.0, 0.0)
