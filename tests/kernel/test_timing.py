"""Clock and cost model."""

import pytest

import dataclasses

from repro.kernel.timing import Clock, CostModel, NS_PER_S, NS_PER_US, Step


def test_clock_starts_at_zero():
    assert Clock().now_ns == 0


def test_advance_accumulates():
    clock = Clock()
    clock.advance(100)
    clock.advance(250)
    assert clock.now_ns == 350


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        Clock().advance(-1)


def test_charge_categories_tracked():
    clock = Clock()
    clock.advance(100, "io")
    clock.advance(50, "io")
    clock.advance(10, "trap")
    assert clock.snapshot() == {"io": 150, "trap": 10}


def test_zero_advance_not_recorded():
    clock = Clock()
    clock.advance(0, "io")
    assert clock.snapshot() == {}


def test_unit_properties():
    clock = Clock()
    clock.advance(NS_PER_S)
    assert clock.now_s == 1.0
    assert clock.now_us == 1_000_000.0


def test_elapsed_since():
    clock = Clock()
    clock.advance(500)
    mark = clock.now_ns
    clock.advance(700)
    assert clock.elapsed_since(mark) == 700


def test_copy_cost_scales_linearly():
    costs = CostModel()
    assert costs.copy_cost(0) == 0
    assert costs.copy_cost(2000) == 2 * costs.copy_cost(1000)


def test_copy_cost_sub_nanosecond_precision():
    # 0.5 ns/byte stored as x1000 integers: 1 byte should round down to 0ns
    costs = CostModel(copy_byte_ns_x1000=500)
    assert costs.copy_cost(1) == 0
    assert costs.copy_cost(2) == 1
    assert costs.copy_cost(8192) == 4096


def test_peekpoke_and_switch_costs():
    costs = CostModel(ptrace_word_ns=100, context_switch_ns=1000, cache_flush_ns=200)
    assert costs.peekpoke_cost(5) == 500
    assert costs.switch_cost(4) == 4800


def test_scaled_returns_modified_copy():
    base = CostModel()
    tweaked = base.scaled(context_switch_ns=9999)
    assert tweaked.context_switch_ns == 9999
    assert base.context_switch_ns != 9999
    assert tweaked.syscall_trap_ns == base.syscall_trap_ns


def test_net_transfer_cost():
    costs = CostModel(net_bytes_per_us=10)
    assert costs.net_transfer_cost(10) == NS_PER_US
    assert costs.net_transfer_cost(0) == 0


def test_a_step_is_one_update_and_folds_into_the_charges():
    step = Step(trap=700, switch=2250, trace=0)
    assert step.total_ns == 2950
    assert step.parts == (("trap", 700), ("switch", 2250))  # no zero parts
    clock = Clock()
    clock.advance(10, "trap")
    clock.apply(step)
    clock.apply(step)
    assert clock.now_ns == 10 + 2 * 2950
    assert clock.charges == {"trap": 1410, "switch": 4500}
    clock.apply(Step(io=5))
    assert clock.snapshot() == {"trap": 1410, "switch": 4500, "io": 5}


def test_a_step_rejects_negative_time():
    with pytest.raises(ValueError):
        Step(trap=-1)


def test_restore_drops_steps_applied_after_the_snapshot():
    clock = Clock()
    clock.apply(Step(trap=3))
    state = clock.snapshot_state()
    assert state == (3, {"trap": 3})
    clock.apply(Step(trap=4, vfs=1))
    clock.restore_state(state)
    assert (clock.now_ns, clock.charges) == (3, {"trap": 3})


def test_a_cost_model_is_replaced_not_mutated():
    """A machine's trap plan is precomputed from its model, so the model
    cannot change under it; a sweep takes a copy instead."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        CostModel().context_switch_ns = 1
