"""The tracing interface: stops, peeks, pokes, rewrites, and their costs."""

import pytest

from repro.kernel import Machine, Regs
from repro.kernel.memory import words_for
from repro.kernel.ptrace import REGS_WORDS


class RecordingTracer:
    """A minimal tracer that logs stops and can rewrite calls."""

    def __init__(self, machine):
        self.machine = machine
        self.entries = []
        self.exits = []
        self.exited = []
        self.rewrite_to = None  # (name, args) or "nullify"
        self.force_result = None

    def on_syscall_entry(self, proc):
        regs = self.machine.trace.peek_regs(proc)
        self.entries.append((regs.name, regs.args))
        if self.rewrite_to == "nullify":
            self.machine.trace.nullify(proc)
        elif self.rewrite_to is not None:
            self.machine.trace.rewrite(proc, *self.rewrite_to)

    def on_syscall_exit(self, proc):
        regs = self.machine.trace.peek_regs(proc)
        self.exits.append(regs.retval)
        if self.force_result is not None:
            self.machine.trace.set_result(proc, self.force_result)

    def on_process_exit(self, proc):
        self.exited.append(proc.pid)


@pytest.fixture
def tracer(machine):
    return RecordingTracer(machine)


def spawn_traced(machine, alice, tracer, body):
    return machine.spawn(body, cred=alice, tracer=tracer, comm="traced")


def test_tracer_sees_entry_and_exit(machine, alice, tracer):
    def body(proc, args):
        yield proc.sys.getuid()
        return 0

    spawn_traced(machine, alice, tracer, body)
    machine.run_to_completion()
    assert tracer.entries == [("getuid", ())]
    assert tracer.exits == [alice.uid]
    assert len(tracer.exited) == 1


def test_nullified_call_executes_getpid(machine, alice, tracer):
    tracer.rewrite_to = "nullify"
    results = []

    def body(proc, args):
        results.append((yield proc.sys.getuid()))
        return 0

    proc = spawn_traced(machine, alice, tracer, body)
    machine.run_to_completion()
    # the child received the *getpid* result, not its uid
    assert results == [proc.pid]


def test_forced_result_overrides_native(machine, alice, tracer):
    tracer.rewrite_to = "nullify"
    tracer.force_result = "synthetic"
    results = []

    def body(proc, args):
        results.append((yield proc.sys.getuid()))
        return 0

    spawn_traced(machine, alice, tracer, body)
    machine.run_to_completion()
    assert results == ["synthetic"]


def test_rewrite_changes_the_call(machine, alice, tracer):
    tracer.rewrite_to = ("getpid", ())
    results = []

    def body(proc, args):
        results.append((yield proc.sys.getuid()))
        return 0

    proc = spawn_traced(machine, alice, tracer, body)
    machine.run_to_completion()
    assert results == [proc.pid]


def test_exit_notifies_tracer(machine, alice, tracer):
    def body(proc, args):
        yield proc.compute(us=1)
        return 0

    proc = spawn_traced(machine, alice, tracer, body)
    machine.run_to_completion()
    assert tracer.exited == [proc.pid]


def test_traced_calls_cost_more_than_untraced(alice):
    def body(proc, args):
        for _ in range(100):
            yield proc.sys.getpid()
        return 0

    plain = Machine()
    cred_p = plain.add_user("u")
    plain.spawn(body, cred=cred_p)
    plain.run_to_completion()

    traced = Machine()
    cred_t = traced.add_user("u")
    tracer = RecordingTracer(traced)
    traced.spawn(body, cred=cred_t, tracer=tracer)
    traced.run_to_completion()

    assert traced.clock.now_ns > 5 * plain.clock.now_ns


def test_peek_bytes_charges_per_word(machine, alice):
    done = []

    class PeekTracer(RecordingTracer):
        def on_syscall_entry(self, proc):
            regs = self.machine.trace.peek_regs(proc)
            if regs.name == "getuid":
                addr = proc.context.scratch["addr"]
                before = self.machine.clock.now_ns
                data = self.machine.trace.peek_bytes(proc, addr, 8000)
                cost = self.machine.clock.now_ns - before
                expected = words_for(8000) * (
                    self.machine.costs.syscall_trap_ns
                    + self.machine.costs.ptrace_word_ns
                )
                done.append((data[:4], cost, expected))

    tracer = PeekTracer(machine)

    def body(proc, args):
        addr = proc.alloc_bytes(b"ABCD" + b"\x00" * 7996)
        proc.scratch["addr"] = addr
        yield proc.sys.getuid()
        return 0

    machine.spawn(body, cred=alice, tracer=tracer)
    machine.run_to_completion()
    data, cost, expected = done[0]
    assert data == b"ABCD"
    assert cost == expected  # word-at-a-time ptrace pricing


def test_poke_bytes_writes_child_memory(machine, alice):
    class PokeTracer(RecordingTracer):
        def on_syscall_entry(self, proc):
            regs = self.machine.trace.peek_regs(proc)
            if regs.name == "getuid":
                self.machine.trace.poke_bytes(
                    proc, proc.context.scratch["addr"], b"injected"
                )

    tracer = PokeTracer(machine)
    seen = []

    def body(proc, args):
        addr = proc.alloc(16)
        proc.scratch["addr"] = addr
        yield proc.sys.getuid()
        seen.append(proc.read_buffer(addr, 8))
        return 0

    machine.spawn(body, cred=alice, tracer=tracer)
    machine.run_to_completion()
    assert seen == [b"injected"]


def test_peek_regs_charges_fixed_words(machine, alice, tracer):
    def body(proc, args):
        yield proc.sys.getpid()
        return 0

    # measure one peek_regs in isolation
    proc = spawn_traced(machine, alice, tracer, body)
    machine.run()  # drives the whole thing; entry/exit each peeked once
    per_peek = machine.costs.syscall_trap_ns + machine.costs.peekpoke_cost(REGS_WORDS)
    assert machine.clock.snapshot()["trace"] == 2 * per_peek


def test_string_peek_cost_scales_with_length(machine, alice):
    costs = []

    class StrTracer(RecordingTracer):
        def on_syscall_entry(self, proc):
            regs = self.machine.trace.peek_regs(proc)
            before = self.machine.clock.now_ns
            self.machine.trace.peek_string_cost(proc, regs.args[0])
            costs.append(self.machine.clock.now_ns - before)

    tracer = StrTracer(machine)

    def body(proc, args):
        yield proc.sys.stat("x")
        yield proc.sys.stat("x" * 100)
        return 0

    machine.spawn(body, cred=alice, tracer=tracer)
    machine.run_to_completion()
    assert costs[1] > costs[0]


def test_poke_regs_replaces_the_call_for_one_trap(machine, alice):
    """PTRACE_SETREGS: the stopped call becomes the poked one, and the
    poke costs one trap plus the whole register set."""
    results = []

    class Poker(RecordingTracer):
        def on_syscall_entry(self, proc):
            self.machine.trace.poke_regs(proc, Regs(name="getpid", args=()))

        def on_syscall_exit(self, proc):
            pass

    def body(proc, args):
        results.append((yield proc.sys.getuid()))
        return 0

    proc = spawn_traced(machine, alice, Poker(machine), body)
    machine.run()
    assert results == [proc.pid]
    per_poke = machine.costs.syscall_trap_ns + machine.costs.peekpoke_cost(REGS_WORDS)
    assert machine.clock.snapshot()["trace"] == per_poke
