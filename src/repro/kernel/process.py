"""Processes, tasks, and the syscall-request protocol.

A simulated process body is a Python *generator*: it yields
:class:`Request` objects (syscalls or compute bursts) and is resumed with
each result.  This gives us real suspension points — the scheduler can stop
a process at a syscall boundary, hand control to a ptrace supervisor, rewrite
the "registers", and resume it — which is exactly the control flow Parrot
exploits (Figure 4 of the paper).

A :class:`Task` carries the kernel-visible execution context (credentials,
descriptor table, working directory).  Both simulated processes and
host-level agents (the interposition supervisor, the Chirp server) own a
Task, so the same syscall implementations serve both; host agents simply are
not scheduled or traced.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from .fdtable import FDTable
from .memory import AddressSpace
from .users import Credentials

#: A process body: generator yielding Requests, resumed with results.
Body = Generator["Request", Any, Any]
#: A program: factory producing a body for a fresh process.
ProgramFactory = Callable[["ProcContext", "list[str]"], Body]


class ProcessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"  #: waiting (waitpid) or stopped under trace
    ZOMBIE = "zombie"  #: exited, not yet reaped
    DEAD = "dead"  #: reaped


class RequestKind(enum.Enum):
    SYSCALL = "syscall"
    COMPUTE = "compute"


# The members bound once for the scheduler and the request builders: a
# lookup through the class costs ~10x a global on CPython 3.11 (DESIGN.md
# §12, host-time conventions).
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING
_BLOCKED = ProcessState.BLOCKED
_ZOMBIE = ProcessState.ZOMBIE
_DEAD = ProcessState.DEAD
_SYSCALL = RequestKind.SYSCALL
_COMPUTE = RequestKind.COMPUTE


@dataclass
class Request:
    """What a process body yields to the kernel."""

    kind: RequestKind
    name: str = ""
    args: tuple = ()
    compute_ns: int = 0


@dataclass
class Regs:
    """The "registers" of a stopped process, as a tracer sees them.

    ``name``/``args`` stand in for the syscall number and argument
    registers; ``retval`` for the return register.  A ptrace supervisor
    rewrites these between the entry and exit stops — nullifying a call
    means setting ``name = "getpid"`` (§5).
    """

    name: str
    args: tuple
    retval: Any = None
    #: set by :meth:`~repro.kernel.ptrace.TraceSession.nullify`: a
    #: delegating tracer owes the call's result at the exit stop
    nullified: bool = False
    #: set by the kernel when the exit stop charged the poke of that
    #: result, so the tracer's ``set_result`` costs nothing more
    result_paid: bool = False


@dataclass
class Task:
    """Kernel-visible execution context shared by processes and host agents.

    ``memory`` is the address space for simulated processes; host agents
    (supervisor, Chirp server) pass ``None`` and use the byte-oriented
    syscall variants instead of address-based ones.  ``process`` is a weak
    reference to the process ``Machine.spawn`` created with this task (a
    thread shares its creator's); host agents have none.  It is weak
    because the process holds the task: a strong one would make every
    reaped process cyclic garbage.
    """

    cred: Credentials
    fdtable: FDTable = field(default_factory=FDTable)
    cwd: str = "/"
    umask: int = 0o022
    memory: AddressSpace | None = None
    process: "weakref.ref[Process] | None" = field(
        default=None, repr=False, compare=False
    )


class SysProxy:
    """Ergonomic constructor for syscall Requests.

    ``proc.sys.open("/x", flags)`` builds the Request the body then yields;
    no I/O happens until the kernel receives it.  Keeping this as a dumb
    constructor (rather than performing the call) is what preserves the
    suspension point.
    """

    def __getattr__(self, name: str):
        def build(*args: Any) -> Request:
            return Request(_SYSCALL, name=name, args=args)

        build.__name__ = name
        # cached on the instance: later lookups of the name skip __getattr__
        self.__dict__[name] = build
        return build


@dataclass
class ProcContext:
    """Handle a process body uses to talk to its own process.

    Exposes memory allocation (library-level, not a syscall) and the
    :class:`SysProxy`.  Bodies receive this as their first argument.
    """

    pid: int
    memory: AddressSpace
    sys: SysProxy = field(default_factory=SysProxy)
    #: arbitrary per-process scratch for workload bodies
    scratch: dict[str, Any] = field(default_factory=dict)

    def alloc(self, size: int) -> int:
        """Allocate a buffer in this process's address space."""
        return self.memory.alloc(size)

    def alloc_bytes(self, data: bytes) -> int:
        """Allocate and fill a buffer; returns its address."""
        return self.memory.alloc_bytes(data)

    def read_buffer(self, addr: int, n: int) -> bytes:
        """Read back a buffer (what a real program would just dereference)."""
        return self.memory.read(addr, n)

    @staticmethod
    def compute(ns: int = 0, us: int = 0, ms: int = 0, s: int = 0) -> Request:
        """Build a compute-burst request (burns simulated CPU time)."""
        total = ns + us * 1_000 + ms * 1_000_000 + s * 1_000_000_000
        return Request(_COMPUTE, compute_ns=total)


@dataclass
class Process:
    """One simulated process."""

    pid: int
    ppid: int
    task: Task
    context: ProcContext
    body: Body
    state: ProcessState = _READY
    exit_status: int | None = None
    #: result to deliver at next resume
    pending_result: Any = None
    #: registers visible while stopped under trace
    regs: Regs | None = None
    #: pid of the tracer-owning supervisor, if traced (0 = untraced)
    tracer: "Any" = None
    #: children pids (live or zombie)
    children: set[int] = field(default_factory=set)
    #: processes blocked in waitpid on us are woken via the scheduler
    waiting_for_child: bool = False
    #: request to re-execute after a pipe wakeup (None when not parked)
    pending_retry: Request | None = None
    #: threads share their creator's Task (memory, descriptors, cwd); the
    #: shared state outlives any single thread's exit
    is_thread: bool = False
    #: a thread's creator, which the shared task answers ``process_of``
    #: with; held here so it outlives its own reaping while a thread runs
    leader: "Process | None" = field(default=None, repr=False, compare=False)
    #: name for diagnostics (program path or label)
    comm: str = "?"

    @property
    def alive(self) -> bool:
        state = self.state
        return state is not _ZOMBIE and state is not _DEAD

