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

from .memory import words_for
from .process import Process, Regs

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: Words "transferred" by a GETREGS/SETREGS call (syscall number + six
#: argument registers + return register).
REGS_WORDS = 8


class Tracer(Protocol):
    """What the kernel requires of a supervisor attached to a process.

    The kernel invokes these synchronously while the child is stopped; the
    scheduler has already charged the stop's context switches.  Everything
    the tracer does in response (peeks, pokes, its own syscalls) is charged
    to the cost model through the :class:`TraceSession` / kcall APIs.
    """

    def on_syscall_entry(self, proc: Process) -> None:
        """Child stopped at syscall entry; regs hold the attempted call."""

    def on_syscall_exit(self, proc: Process) -> None:
        """Child stopped at syscall exit; regs hold the native result."""

    def on_process_exit(self, proc: Process) -> None:
        """Child exited (bookkeeping only; the child cannot be resumed)."""


class TraceSession:
    """Supervisor-side handle for inspecting/rewriting stopped children.

    Every operation charges simulated time exactly as the corresponding
    ptrace call would cost: one kernel trap per request, plus per-word
    transfer cost.  Bulk helpers exist but deliberately pay the word-at-a-
    time price — that is the honest 2005 ptrace behaviour the I/O channel
    was invented to avoid.
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
        """PTRACE_GETREGS: one trap, whole register set."""
        self._charge(1, REGS_WORDS)
        assert proc.regs is not None, "process is not stopped at a syscall"
        return proc.regs

    def poke_regs(self, proc: Process, regs: Regs) -> None:
        """PTRACE_SETREGS: one trap, whole register set."""
        self._charge(1, REGS_WORDS)
        proc.regs = regs

    def nullify(self, proc: Process) -> None:
        """Rewrite the pending call into ``getpid()`` (§5's null syscall)."""
        assert proc.regs is not None
        self._charge(1, REGS_WORDS)
        proc.regs.name = "getpid"
        proc.regs.args = ()

    def rewrite(self, proc: Process, name: str, args: tuple) -> None:
        """Rewrite the pending call into a different call (read -> pread)."""
        assert proc.regs is not None
        self._charge(1, REGS_WORDS)
        proc.regs.name = name
        proc.regs.args = args

    def set_result(self, proc: Process, value) -> None:
        """At exit stop: overwrite the return register with ``value``."""
        assert proc.regs is not None
        self._charge(1, 1)
        proc.regs.retval = value

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
        """
        nwords = words_for(len(text) + 1)
        self._charge(nwords, nwords)
        return text
