"""Figure 4 as executable documentation: the trapped-syscall cost anatomy.

The paper's Figure 4 fixes the control flow of one delegated syscall; this
suite asserts the simulated charges follow it exactly — per-category, so a
refactor that silently drops a context switch or a register peek fails here.
"""

import pytest

from repro.core.box import IdentityBox
from repro.interpose.strace import SyscallTrace
from repro.kernel import Machine, OpenFlags
from repro.kernel.ptrace import REGS_WORDS
from repro.kernel.timing import CostModel


def charges_for(calls_body, boxed: bool, costs: CostModel | None = None):
    """Run a one-process workload on a fresh machine; return charge deltas."""
    machine = Machine(costs=costs)
    cred = machine.add_user("u")
    if boxed:
        box = IdentityBox(machine, cred, "V")
        before = machine.clock.snapshot()
        box.spawn(calls_body)
    else:
        before = machine.clock.snapshot()
        machine.spawn(calls_body, cred=cred)
    machine.run_to_completion()
    after = machine.clock.snapshot()
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}


def n_calls(name, n):
    def body(proc, args):
        call = getattr(proc.sys, name)
        for _ in range(n):
            yield call()
        return 0

    return body


def n_getpids(n):
    return n_calls("getpid", n)


def test_each_trapped_call_pays_four_context_switches():
    """Entry stop + exit stop, each a switch to the supervisor and back."""
    machine = Machine()
    per_switch = machine.costs.context_switch_ns + machine.costs.cache_flush_ns
    delta = {
        k: charges_for(n_getpids(200), boxed=True).get(k, 0)
        - charges_for(n_getpids(100), boxed=True).get(k, 0)
        for k in ("switch", "trace", "trap")
    }
    assert delta["switch"] == 100 * 4 * per_switch


def test_each_trapped_call_peeks_registers_twice():
    """The supervisor examines the registers at both stops (getpid is the
    pass-through case: no nullify, no extra pokes)."""
    machine = Machine()
    per_peek = machine.costs.syscall_trap_ns + machine.costs.peekpoke_cost(REGS_WORDS)
    boxed_small = charges_for(n_getpids(100), boxed=True)
    boxed_big = charges_for(n_getpids(200), boxed=True)
    assert boxed_big["trace"] - boxed_small["trace"] == 100 * 2 * per_peek


def test_trap_charges_per_call():
    """Per trapped call: 2 traps per stop x 2 stops + 1 resume trap per
    stop... summarized, the delta must be an exact integer multiple of the
    trap cost and strictly larger than the untraced case's single trap."""
    machine = Machine()
    trap = machine.costs.syscall_trap_ns
    boxed = (
        charges_for(n_getpids(200), boxed=True)["trap"]
        - charges_for(n_getpids(100), boxed=True)["trap"]
    )
    plain = (
        charges_for(n_getpids(200), boxed=False)["trap"]
        - charges_for(n_getpids(100), boxed=False)["trap"]
    )
    assert plain == 100 * trap
    assert boxed % trap == 0
    assert boxed >= 7 * plain  # "at least six context switches" worth of traps


def test_untraced_calls_never_touch_trace_or_switch_budgets():
    charges = charges_for(n_getpids(50), boxed=False)
    assert charges.get("trace", 0) == 0
    assert charges.get("switch", 0) == 0


def test_compute_time_identical_inside_and_outside():
    """Interposition taxes syscalls, never the application's own CPU."""

    def body(proc, args):
        yield proc.compute(ms=7)
        return 0

    assert (
        charges_for(body, boxed=True)["compute"]
        == charges_for(body, boxed=False)["compute"]
        == 7_000_000
    )


def test_bulk_read_charges_two_copies():
    """Figure 4(b): the supervisor copies into the channel, the child copies
    out — double the unmodified data movement."""
    from repro.kernel import OpenFlags

    def reader(n):
        def body(proc, args):
            machine_path = "/tmp/bulk.dat"
            fd = yield proc.sys.open(machine_path, OpenFlags.O_RDONLY)
            buf = proc.alloc(8192)
            for _ in range(n):
                yield proc.sys.pread(fd, buf, 8192, 0)
            yield proc.sys.close(fd)
            return 0

        return body

    def io_delta(boxed):
        machine = Machine()
        cred = machine.add_user("u")
        task = machine.host_task(cred)
        machine.write_file(task, "/tmp/bulk.dat", b"z" * 8192)

        def run(n):
            m2 = Machine()
            c2 = m2.add_user("u")
            t2 = m2.host_task(c2)
            m2.write_file(t2, "/tmp/bulk.dat", b"z" * 8192)
            if boxed:
                box = IdentityBox(m2, c2, "V")
                box.spawn(reader(n))
            else:
                m2.spawn(reader(n), cred=c2)
            m2.run_to_completion()
            return m2.clock.snapshot().get("io", 0)

        return run(40) - run(20)

    plain_io = io_delta(boxed=False)
    boxed_io = io_delta(boxed=True)
    assert boxed_io == pytest.approx(2 * plain_io, rel=0.05)


# ---------------------------------------------------------------------- #
# the trap plan: Figure 4's kernel-side charges, declared once
# ---------------------------------------------------------------------- #


def per_call(name, costs=None):
    """Charges of one boxed ``name()``, by differencing 200 calls and 100."""
    big = charges_for(n_calls(name, 200), boxed=True, costs=costs)
    small = charges_for(n_calls(name, 100), boxed=True, costs=costs)
    delta = {k: big.get(k, 0) - small.get(k, 0) for k in set(big) | set(small)}
    assert all(ns % 100 == 0 for ns in delta.values())
    return {k: ns // 100 for k, ns in delta.items() if ns}


def summed(*steps, **extra):
    """Category totals of ``steps`` plus any ``extra`` charges."""
    total = dict(extra)
    for step in steps:
        for category, ns in step.parts:
            total[category] = total.get(category, 0) + ns
    return total


def test_a_trapped_getpid_costs_exactly_its_plan_steps():
    """Entry stop, resume into the native call, exit stop, resume: the
    pass-through call pays the four steps and nothing else."""
    plan = Machine().trap_plan
    assert per_call("getpid") == summed(
        plan.stop_getregs, plan.resume_native, plan.stop_getregs, plan.resume
    )


def test_a_nullified_call_costs_its_plan_steps_and_one_setregs():
    """get_user_name is answered by the supervisor: it nullifies the call
    (a SETREGS it pays itself), and the exit stop pokes the result."""
    machine = Machine()
    plan = machine.trap_plan
    setregs = machine.costs.syscall_trap_ns + machine.costs.peekpoke_cost(REGS_WORDS)
    assert per_call("get_user_name") == summed(
        plan.stop_getregs,
        plan.resume_native,
        plan.stop_getregs_poke,
        plan.resume,
        trace=setregs,
    )


def test_a_swept_cost_model_gets_its_own_plan():
    """``CostModel.scaled`` is a new model, so the machine's plan follows
    it and the ablation sweeps see the swept context switch."""
    costs = CostModel().scaled(context_switch_ns=9_000)
    machine = Machine(costs=costs)
    plan = machine.trap_plan
    assert plan.costs is costs
    assert dict(plan.resume.parts)["switch"] == 9_000 + costs.cache_flush_ns
    assert per_call("getpid", costs)["switch"] == 4 * (9_000 + costs.cache_flush_ns)
    assert per_call("getpid", costs) == summed(
        plan.stop_getregs, plan.resume_native, plan.stop_getregs, plan.resume
    )
    # a restore adopts the snapshot's model, and the plan is rebuilt for it
    machine.restore(Machine().snapshot())
    assert machine.trap_plan.costs is machine.costs
    assert dict(machine.trap_plan.resume.parts)["switch"] == 2_250
    assert machine.fork().trap_plan.costs is machine.costs


def test_the_clock_reads_inside_trapped_calls_are_pinned(monkeypatch):
    """What reads the clock mid-call sees the same time as when each
    charge of Figure 4 was its own update: an interceptor at the entry
    stop (before and after the handler), and strace at the exit stop.  The
    calls are a pass-through getpid, a stat, an open the supervisor
    nullifies and answers, and a pipe read that parks and finishes
    through the resume path."""
    resumed = []
    resume = Machine._resume_traced_native

    def counted(self, proc):
        resumed.append(proc.pid)
        resume(self, proc)

    monkeypatch.setattr(Machine, "_resume_traced_native", counted)
    machine = Machine()
    cred = machine.add_user("u")
    box = IdentityBox(machine, cred, "Visitor")
    box.supervisor.strace = SyscallTrace()
    entry = []

    def watch(op, ctx, proceed):
        entry.append((op.name, machine.clock.now_ns))
        try:
            return proceed()
        finally:
            entry.append((op.name, machine.clock.now_ns))

    box.supervisor.pipeline.add_interceptor(watch)

    def writer(proc, args):
        yield proc.compute(us=40)  # the reader gets to its read first
        addr = proc.alloc_bytes(b"hello")
        yield proc.sys.write(int(args[0]), addr, 5)
        return 0

    machine.register_program("writer", writer)
    machine.install_program(box.owner_task, f"{box.home}/writer.exe", "writer")

    def reader(proc, args):
        yield proc.sys.getpid()
        yield proc.sys.stat("/tmp")
        yield proc.sys.open("notes", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        rfd, wfd = yield proc.sys.pipe()
        yield proc.sys.spawn("writer.exe", (str(wfd),))
        buf = proc.alloc(16)
        yield proc.sys.read(rfd, buf, 16)
        return 0

    parent = box.spawn(reader)
    machine.run_to_completion()
    assert resumed == [parent.pid]
    assert entry == [
        ("getpid", 303979), ("getpid", 303979),
        ("stat", 318519), ("stat", 322609),
        ("open", 337619), ("open", 344419),
        ("pipe", 358959), ("pipe", 361269),
        ("spawn", 376749), ("spawn", 634426),
        ("read", 693466), ("read", 694776),
        ("write", 704236), ("write", 705546),
    ]
    assert [(r.name, r.time_ns) for r in box.supervisor.strace.records] == [
        ("getpid", 311189),
        ("stat", 330289),
        ("open", 352099),
        ("pipe", 368949),
        ("spawn", 642106),
        ("write", 713058),
        ("read", 722820),
    ]
    assert machine.clock.now_ns == 730770
