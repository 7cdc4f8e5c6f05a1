"""The ptrace-flavoured tracing interface of the simulated kernel.

This is the primitive the paper's whole implementation rests on: a
supervisor process attaches to children, the kernel stops each child at
syscall entry and exit and hands control to the supervisor, and the
supervisor inspects and rewrites the child's registers and memory one word
at a time (§5, Figure 4).

Cost realism matters here.  On 2005-era Linux every PEEKDATA/POKEDATA moved
*one word per syscall*, which is why bulk data had to travel through the
shared I/O channel instead — our cost accounting reproduces that pressure,
and the ``bench_ablation_iochannel`` benchmark shows what happens without
the channel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from .errno import Errno, err
from .memory import WORD_SIZE, words_for
from .process import Process, Regs
from .timing import CostModel, Step

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: Words "transferred" by a GETREGS/SETREGS call (syscall number + six
#: argument registers + return register).
REGS_WORDS = 8


class TrapPlan:
    """Figure 4's kernel-side cost for one :class:`CostModel`, as data.

    This is the one place the charges of a trapped syscall's stops and
    resumes are stated.  Each attribute is a :class:`Step` that the machine
    applies as one ledger update; a step ends only where something can read
    the clock before the next charge (the tracer at a stop, the native
    call's body).  A machine builds its plan from its cost model and
    rebuilds it when the model is replaced (``CostModel.scaled``, restore,
    fork).  What the tracer does between the stops (SETREGS, memory peeks
    and pokes, its own syscalls) it charges itself, through
    :class:`TraceSession` and kcall.
    """

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        trap = costs.syscall_trap_ns
        switch = costs.switch_cost(1)
        getregs = trap + costs.peekpoke_cost(REGS_WORDS)
        poke = trap + costs.peekpoke_cost(1)
        #: a trace stop: the child traps, the kernel switches to the tracer,
        #: and the tracer's ``wait()`` returns (a second trap)
        self.stop = Step(trap=2 * trap, switch=switch)
        #: the same stop with the GETREGS a delegating tracer makes at it
        self.stop_getregs = Step(trap=2 * trap, switch=switch, trace=getregs)
        #: the exit stop of a call a delegating tracer nullified: the
        #: GETREGS and the POKEUSER of the result it arranged
        self.stop_getregs_poke = Step(trap=2 * trap, switch=switch, trace=getregs + poke)
        #: the tracer's ``ptrace(SYSCALL)``: one trap, the switch back
        self.resume = Step(trap=trap, switch=switch)
        #: the entry stop's resume, with the trap of the native call that
        #: runs next
        self.resume_native = Step(trap=2 * trap, switch=switch)
        #: the native call's trap alone, when a call parked on a pipe retries
        self.native = Step(trap=trap)


class Tracer(Protocol):
    """What the kernel requires of a supervisor attached to a process.

    The kernel invokes these synchronously while the child is stopped.  It
    charges the stops and resumes itself, as the steps of its
    :class:`TrapPlan`: their traps and context switches, the native call's
    trap and, for a ``delegating`` tracer, the GETREGS it makes at every
    stop and the POKEUSER of the result of each call it nullified.  The
    tracer's own calls charge the rest through :class:`TraceSession` and
    kcall: SETREGS (``nullify``, ``rewrite``, ``poke_regs``), peeks and
    pokes of memory, any other ``set_result``, its delegated syscalls.

    A call a ``delegating`` tracer nullified is not run: the tracer owes
    its result and writes it with ``set_result`` at the exit stop, so the
    kernel charges the rewritten ``getpid()``'s trap and skips its body
    (``regs.retval`` is None until the tracer sets it).  Any other tracer's
    nullified call runs, and its exit stop sees ``getpid()``'s result.
    """

    #: a delegating tracer (the supervisor) reads the registers at every
    #: stop and, at the exit stop, writes the result of every call it
    #: nullified: Figure 4's steps 2 and 6.  A tracer without the
    #: attribute pays for each ``peek_regs`` and ``set_result`` it makes.
    delegating: bool

    def on_syscall_entry(self, proc: Process) -> None:
        """Child stopped at syscall entry; regs hold the attempted call."""

    def on_syscall_exit(self, proc: Process) -> None:
        """Child stopped at syscall exit; regs hold the native result."""

    def on_process_exit(self, proc: Process) -> None:
        """Child exited (bookkeeping only; the child cannot be resumed)."""


class TraceSession:
    """Supervisor-side handle for inspecting/rewriting stopped children.

    Every operation costs simulated time exactly as the corresponding
    ptrace call would: one kernel trap per request, plus per-word transfer
    cost.  For a ``delegating`` tracer the kernel's stops already charge
    the GETREGS of every stop and the poke of a nullified call's result
    (see :class:`Tracer`), so ``peek_regs`` and that ``set_result`` charge
    nothing here; every other call charges itself.  Bulk helpers exist but
    deliberately pay the word-at-a-time price — that is the honest 2005
    ptrace behaviour the I/O channel was invented to avoid.
    """

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine

    def _charge(self, traps: int, nwords: int) -> None:
        costs = self._machine.costs
        self._machine.clock.advance(
            traps * costs.syscall_trap_ns + costs.peekpoke_cost(nwords), "trace"
        )

    # -- registers ------------------------------------------------------ #

    def peek_regs(self, proc: Process) -> Regs:
        """PTRACE_GETREGS: one trap, whole register set (paid by the stop
        for a delegating tracer)."""
        regs = proc.regs
        assert regs is not None, "process is not stopped at a syscall"
        if not getattr(proc.tracer, "delegating", False):
            self._charge(1, REGS_WORDS)
        return regs

    def poke_regs(self, proc: Process, regs: Regs) -> None:
        """PTRACE_SETREGS: one trap, whole register set."""
        self._charge(1, REGS_WORDS)
        proc.regs = regs

    def nullify(self, proc: Process) -> None:
        """Rewrite the pending call into ``getpid()`` (§5's null syscall);
        a delegating tracer's exit stop then pokes the result it owes."""
        regs = proc.regs
        assert regs is not None
        costs = self._machine.costs
        self._machine.clock.advance(
            costs.syscall_trap_ns + REGS_WORDS * costs.ptrace_word_ns, "trace"
        )
        regs.name = "getpid"
        regs.args = ()
        regs.nullified = True

    def rewrite(self, proc: Process, name: str, args: tuple) -> None:
        """Rewrite the pending call into a different call (read -> pread)."""
        assert proc.regs is not None
        self._charge(1, REGS_WORDS)
        proc.regs.name = name
        proc.regs.args = args

    def set_result(self, proc: Process, value) -> None:
        """At exit stop: overwrite the return register with ``value``; free
        once, when the stop already charged the poke of the result."""
        regs = proc.regs
        assert regs is not None
        if regs.result_paid:
            regs.result_paid = False
        else:
            self._charge(1, 1)
        regs.retval = value

    # -- memory (word at a time, as 2005 ptrace required) ---------------- #

    def peek_bytes(self, proc: Process, addr: int, n: int) -> bytes:
        """Read child memory; charged one trap *per word* (PEEKDATA)."""
        mem = proc.task.memory
        assert mem is not None
        self._charge(words_for(n), words_for(n))
        return mem.read(addr, n)

    def poke_bytes(self, proc: Process, addr: int, data: bytes) -> None:
        """Write child memory; charged one trap *per word* (POKEDATA)."""
        mem = proc.task.memory
        assert mem is not None
        nwords = words_for(len(data))
        self._charge(nwords, nwords)
        mem.write(addr, data)

    def peek_string_cost(self, proc: Process, text: str) -> str:
        """Charge the cost of peeking a string argument out of the child.

        Syscall arguments in this simulation carry Python strings directly,
        but a real supervisor must fetch them from child memory word by
        word; this charges that traffic without round-tripping the bytes.
        An argument that is no string is a bad address (EFAULT).
        """
        if not isinstance(text, str):
            raise err(Errno.EFAULT, f"bad path argument {text!r}")
        machine = self._machine
        costs = machine.costs
        # one PEEKDATA per word of the string and its NUL
        nwords = (len(text) + WORD_SIZE) // WORD_SIZE
        machine.clock.advance(
            nwords * (costs.syscall_trap_ns + costs.ptrace_word_ns), "trace"
        )
        return text
