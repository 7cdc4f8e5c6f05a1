"""The :class:`Machine`: one simulated host.

Ties together the clock/cost model, the account database, the filesystem,
the process table and scheduler, the syscall dispatcher, and the tracing
machinery.  Everything the rest of the reproduction does — identity boxes,
Chirp servers, workload runs — happens on a Machine.

Two call surfaces exist:

* **Simulated processes** yield syscall requests from generator bodies; the
  scheduler executes them, paying trap costs and, for traced processes, the
  full Figure-4 stop/peek/rewrite/resume dance.
* **Host agents** (the interposition supervisor, Chirp servers) call
  :meth:`kcall`/:meth:`kcall_x` directly with their own
  :class:`~repro.kernel.process.Task`.  They pay trap costs but are never
  traced — just as Parrot itself runs as an ordinary untraced process.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any

from .errno import _ERRNO_OF, Errno, KernelError, err
from .fdtable import O_RDONLY, O_WRONLY_CREAT_TRUNC, FDTable
from .localfs import LocalFS
from .memory import AddressSpace
from .pipes import Pipe, WouldBlock
from .process import (
    _BLOCKED,
    _COMPUTE,
    _DEAD,
    _READY,
    _RUNNING,
    _ZOMBIE,
    ProcContext,
    Process,
    ProgramFactory,
    Regs,
    Request,
    Task,
)
from .ptrace import TraceSession, Tracer, TrapPlan
from .signals import Signal, can_signal_unix, default_is_fatal
from .syscalls import SyscallExecutor
from .timing import Clock, CostModel
from .users import Credentials, UserDB
from .vfs import VFS

#: Shebang prefix marking a simulated executable file: ``#!repro:progname``.
SHEBANG = "#!repro:"

#: Exit-status encoding for signal deaths (mirrors WIFSIGNALED semantics).
SIGNAL_EXIT_BASE = 128

#: Every syscall the executor implements (its ``do_<name>`` methods).
_SYSCALL_NAMES = tuple(
    attr[3:] for attr in dir(SyscallExecutor) if attr.startswith("do_")
)

#: The errnos the kernel entry answers itself, bound once as plain ints
#: (an ``Errno`` member looked up through its class costs about 10x).
_ENOSYS = int(Errno.ENOSYS)
_EAGAIN = int(Errno.EAGAIN)

#: Sentinel returned by the traced-call machinery when the call blocked on
#: a pipe and the process has been parked (nothing to deliver yet).
PARKED = object()


@dataclass
class WaitResult:
    """What ``waitpid`` returns."""

    pid: int
    status: int


@dataclass(frozen=True)
class WorldSnapshot:
    """An O(1), structurally shared image of one Machine's mutable world.

    Produced by :meth:`Machine.snapshot`; consumed by :meth:`Machine.fork`
    (a new machine over this state), :meth:`Machine.restore` (rewind in
    place), or ``Machine(snapshot=...)`` (boot directly from it).  The
    heavy stores (inodes, accounts) are held as frozen CoW layers shared
    with the source machine and every fork; only divergence is ever
    copied, so taking and instantiating snapshots is O(size-of-diff).

    Not captured: processes — their generator bodies cannot be cloned,
    so :meth:`Machine.snapshot` demands a quiescent world, whose process
    table is empty (a reaped process leaves it, and a zombie's parent is
    alive) — nor open-but-unlinked inodes, host-agent descriptor tables,
    or anything outside the kernel (live Chirp connections, supervisors,
    telemetry).
    """

    hostname: str
    costs: CostModel
    clock: object
    users: object
    fs: object
    next_pid: int
    proc_syscalls: int
    programs: dict[str, ProgramFactory]
    taken_at_ns: int


class Machine:
    """One simulated host: kernel plus hardware cost model."""

    def __init__(
        self,
        costs: CostModel | None = None,
        hostname: str = "localhost",
        clock: Clock | None = None,
        telemetry=None,
        snapshot: WorldSnapshot | None = None,
    ) -> None:
        self.hostname = hostname
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else Clock()
        #: optional metrics sink (duck-typed; see :mod:`repro.core.telemetry`
        #: — the kernel never imports it).  When attached, every completed
        #: simulated-process syscall lands in a per-op latency histogram.
        self.telemetry = telemetry
        #: (syscall, mode) -> bound latency histogram handle
        self._latency_hists: dict[tuple[str, str], Any] = {}
        self.users = UserDB()
        self.fs = LocalFS()
        self.vfs = VFS(self.fs)
        self.executor = SyscallExecutor(self)
        #: syscall name -> the executor's bound ``do_<name>``; a name not
        #: in it falls back to a lookup by name (ENOSYS when that fails too)
        self._handlers: dict[str, Any] = {
            name: getattr(self.executor, "do_" + name) for name in _SYSCALL_NAMES
        }
        self.trace = TraceSession(self)
        #: Figure 4's steps for ``costs``, built at the first trapped call
        #: and again whenever ``costs`` is replaced (see :attr:`trap_plan`)
        self._plan: TrapPlan | None = None
        self.programs: dict[str, ProgramFactory] = {}
        #: pid -> every live or zombie process; a process leaves at reap
        self._procs: dict[int, Process] = {}
        self._next_pid = 100
        self._ready: deque[int] = deque()
        self._last_run_pid: int | None = None
        #: total syscalls dispatched by simulated processes (not host agents)
        self.proc_syscalls = 0
        if snapshot is not None:
            # fork-from-checkpoint: adopt the shared world state instead
            # of paying the cold bootstrap (mkdirs + passwd writes)
            self.restore(snapshot)
        else:
            self._bootstrap_fs()

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #

    def _bootstrap_fs(self) -> None:
        """Create the conventional top-level directories and /etc/passwd."""
        root = self.host_task(self.users.credentials_for("root"))
        for path in ("/etc", "/home", "/tmp", "/usr", "/usr/bin", "/root"):
            self.kcall_x(root, "mkdir", path, 0o755)
        self.kcall_x(root, "chmod", "/tmp", 0o777)
        self.refresh_passwd_file()

    def refresh_passwd_file(self) -> None:
        """(Re)write /etc/passwd from the account database."""
        root = self.host_task(self.users.credentials_for("root"))
        self.write_file(root, "/etc/passwd", self.users.render_passwd().encode())

    def add_user(self, name: str) -> Credentials:
        """Admin convenience: create an account, its home dir, and passwd entry."""
        root = self.host_task(self.users.credentials_for("root"))
        account = self.users.create_account(root.cred, name)
        self.kcall_x(root, "mkdir", account.home, 0o755)
        self.kcall_x(root, "chown", account.home, account.uid, account.gid)
        self.refresh_passwd_file()
        return self.users.credentials_for(name)

    def host_task(self, cred: Credentials, cwd: str = "/") -> Task:
        """Execution context for a host-level agent (never scheduled)."""
        table = FDTable(incarnation=self.fs.incarnation)
        return Task(cred=cred, fdtable=table, cwd=cwd)

    def check_table(self, table: FDTable) -> None:
        """EBADF unless ``table`` is unstamped or belongs to this world.

        The world is :attr:`LocalFS.incarnation
        <repro.kernel.localfs.LocalFS.incarnation>`, the one fence between
        this machine's worlds: a table stamped before a restore, or in
        the parent of a fork, names inode numbers this world may reuse.
        """
        stamp = table.incarnation
        if stamp is not None and stamp is not self.fs.incarnation:
            raise err(Errno.EBADF, "descriptor table from another world")

    def close(self) -> None:
        """Let a finished world go at once; the machine is unusable after.

        The executor, the tracer and every agent built on the machine
        hold it, and it holds them, so a dropped machine is cyclic
        garbage: its file system, file bytes included, would stay resident
        until the interpreter's next full collection, which comes at no
        fixed point.  Dropping everything the machine holds breaks those
        cycles, and reference counting frees the world here.
        """
        self.__dict__.clear()

    # ------------------------------------------------------------------ #
    # world snapshot / fork / restore
    # ------------------------------------------------------------------ #

    def snapshot(self) -> WorldSnapshot:
        """Freeze the whole mutable world in O(1).

        Requires quiescence — no runnable or blocked process — because a
        live generator body cannot be cloned (EBUSY otherwise).  The
        returned snapshot shares its heavy state with this machine
        copy-on-write: both sides keep running at full speed and only
        pay, per touched inode/account, when they diverge.
        """
        self._require_quiescent()
        return WorldSnapshot(
            hostname=self.hostname,
            costs=self.costs,
            clock=self.clock.snapshot_state(),
            users=self.users.snapshot_state(),
            fs=self.vfs.snapshot_state(),
            next_pid=self._next_pid,
            proc_syscalls=self.proc_syscalls,
            programs=dict(self.programs),
            taken_at_ns=self.clock.now_ns,
        )

    def fork(self, snapshot: WorldSnapshot | None = None) -> "Machine":
        """A new Machine over this world's state, O(size-of-diff).

        With no argument, snapshots the current (quiescent) world first.
        The fork gets its own clock (positioned at the snapshot instant),
        its own :attr:`LocalFS.incarnation
        <repro.kernel.localfs.LocalFS.incarnation>`, distinct from every
        other world's (parent descriptor tables are EBADF there), and —
        when this machine carries telemetry — a detached telemetry
        instance with a fresh trace lineage: the child's spans never nest
        under whatever span the parent world had open.
        """
        snap = snapshot if snapshot is not None else self.snapshot()
        fork_telemetry = None
        if self.telemetry is not None and hasattr(self.telemetry, "fork"):
            fork_telemetry = self.telemetry.fork()
        child = Machine(
            costs=snap.costs,
            hostname=snap.hostname,
            telemetry=fork_telemetry,
            snapshot=snap,
        )
        if fork_telemetry is not None:
            fork_telemetry.clock = child.clock
        return child

    def restore(self, snapshot: WorldSnapshot) -> None:
        """Rewind this machine to ``snapshot``, in place and O(diff).

        The CoW stores swap back to the snapshot's frozen layers; nothing
        is copied.  The file system takes a new incarnation, distinct from
        every earlier one, so descriptor tables stamped before the restore
        (including ones from abandoned futures of the same snapshot) fail
        with EBADF rather than aliasing the rewound inodes, and no spawn
        adopts them.  The process table and scheduler state are cleared;
        telemetry, if attached, keeps accumulating — wipe or replace it
        explicitly if the rewound world should report fresh.
        """
        self.hostname = snapshot.hostname
        self.costs = snapshot.costs
        self.clock.restore_state(snapshot.clock)
        self.users.restore_state(snapshot.users)
        self.vfs.restore_state(snapshot.fs)
        self.programs = dict(snapshot.programs)
        self._procs = {}
        self._next_pid = snapshot.next_pid
        self._ready.clear()
        self._last_run_pid = None
        self.proc_syscalls = snapshot.proc_syscalls

    # protocol aliases: a Machine is itself Snapshotable
    snapshot_state = snapshot
    restore_state = restore

    def _require_quiescent(self) -> None:
        if self._procs or self._ready:
            names = ", ".join(f"{p.pid}:{p.comm}" for p in self._procs.values())
            names = names or "<ready queue>"
            raise err(
                Errno.EBUSY,
                f"snapshot requires a quiescent world (live: {names})",
            )

    def register_program(self, name: str, factory: ProgramFactory) -> None:
        """Register a named program; executable files reference it by shebang."""
        self.programs[name] = factory

    def install_program(
        self, task: Task, path: str, program: str, mode: int = 0o755
    ) -> None:
        """Write an executable file whose shebang names a registered program."""
        if program not in self.programs:
            raise err(Errno.ENOENT, f"program {program!r} not registered")
        self.write_file(task, path, f"{SHEBANG}{program}\n".encode(), mode=mode)

    # ------------------------------------------------------------------ #
    # convenience file I/O for host agents (kcall wrappers)
    # ------------------------------------------------------------------ #

    def write_file(self, task: Task, path: str, data: bytes, mode: int = 0o644) -> None:
        fd = self.kcall_x(task, "open", path, O_WRONLY_CREAT_TRUNC, mode)
        try:
            self.kcall_x(task, "write_bytes", fd, data)
        finally:
            self.kcall_x(task, "close", fd)

    def read_file(self, task: Task, path: str) -> bytes:
        fd = self.kcall_x(task, "open", path, O_RDONLY)
        try:
            out = bytearray()
            while True:
                chunk = self.kcall_x(task, "read_bytes", fd, 65536)
                if not chunk:
                    return bytes(out)
                out.extend(chunk)
        finally:
            self.kcall_x(task, "close", fd)

    # ------------------------------------------------------------------ #
    # syscall dispatch
    # ------------------------------------------------------------------ #

    def _dispatch(self, task: Task, name: str, args: tuple) -> Any:
        """Execute one syscall body of a simulated process (no trap charge)
        with Unix error convention; a would-block pipe op propagates."""
        handler = self._handlers.get(name)
        if handler is None:
            handler = getattr(self.executor, f"do_{name}", None)
            if handler is None:
                return -_ENOSYS
        try:
            return handler(task, *args)
        except KernelError as exc:
            return -int(exc.errno)

    def kcall(self, task: Task, name: str, *args: Any) -> Any:
        """Host-agent syscall: trap charge + dispatch; returns -errno on failure.

        Host agents are not scheduled, so a would-block pipe operation
        surfaces as ``-EAGAIN`` rather than parking anything.
        """
        self.clock.advance(self.costs.syscall_trap_ns, "trap")
        handler = self._handlers.get(name)
        if handler is None:
            handler = getattr(self.executor, f"do_{name}", None)
            if handler is None:
                return -_ENOSYS
        try:
            return handler(task, *args)
        except KernelError as exc:
            return -int(exc.errno)
        except WouldBlock:
            return -_EAGAIN

    def kcall_x(self, task: Task, name: str, *args: Any) -> Any:
        """Like :meth:`kcall` but raises :class:`KernelError` on failure."""
        result = self.kcall(task, name, *args)
        if isinstance(result, int) and result < 0:
            raise KernelError(_ERRNO_OF.get(-result, -result), f"{name}{args!r}")
        return result

    def process_of(self, task: Task) -> Process | None:
        """The process :meth:`spawn` created with ``task`` (None for host
        agents, and once nothing holds the reaped process any more).

        A thread shares its creator's task; the creator is the answer,
        and each thread holds it (``Process.leader``) while it lives.
        """
        ref = task.process
        return ref() if ref is not None else None

    # ------------------------------------------------------------------ #
    # process lifecycle
    # ------------------------------------------------------------------ #

    def spawn(
        self,
        factory: ProgramFactory,
        args: list[str] | None = None,
        *,
        cred: Credentials,
        cwd: str = "/",
        ppid: int = 0,
        tracer: Tracer | None = None,
        comm: str = "?",
        fdtable: FDTable | None = None,
    ) -> Process:
        """Create a process running ``factory`` and enqueue it.

        ``fdtable`` lets callers model fork-style descriptor inheritance
        (``spawn_from_file`` passes the parent's ``fork_copy``).  The
        process adopts only an unstamped table or one of this world: a
        table from another world is EBADF, before a pid is taken or the
        clock is charged.
        """
        fdtable = fdtable if fdtable is not None else FDTable()
        self.check_table(fdtable)
        fdtable.incarnation = self.fs.incarnation
        pid = self._next_pid
        self._next_pid += 1
        memory = AddressSpace()
        task = Task(cred=cred, fdtable=fdtable, cwd=cwd, memory=memory)
        context = ProcContext(pid=pid, memory=memory)
        body = factory(context, args or [])
        proc = Process(
            pid=pid,
            ppid=ppid,
            task=task,
            context=context,
            body=body,
            tracer=tracer,
            comm=comm,
        )
        task.process = weakref.ref(proc)
        self._procs[pid] = proc
        if ppid in self._procs:
            self._procs[ppid].children.add(pid)
        self.clock.advance(self.costs.fork_ns + self.costs.exec_ns, "proc")
        self._ready.append(pid)
        return proc

    def spawn_thread(
        self,
        parent: Process,
        factory: ProgramFactory,
        args: list[str] | None = None,
        comm: str = "thread",
    ) -> Process:
        """Create a thread of ``parent``: same Task (memory, descriptors,
        cwd, credentials), own pid and own execution (§6: "multi-threaded
        applications ... are supported in the same way as in a real
        kernel").  The thread inherits the parent's tracer, so boxed
        threads stay boxed."""
        pid = self._next_pid
        self._next_pid += 1
        context = ProcContext(pid=pid, memory=parent.task.memory)
        body = factory(context, args or [])
        proc = Process(
            pid=pid,
            ppid=parent.pid,
            task=parent.task,
            context=context,
            body=body,
            tracer=parent.tracer,
            is_thread=True,
            leader=parent.leader or parent,
            comm=comm,
        )
        self._procs[pid] = proc
        parent.children.add(pid)
        # thread creation is much cheaper than fork+exec
        self.clock.advance(self.costs.fork_ns // 4, "proc")
        self._ready.append(pid)
        return proc

    def spawn_from_file(self, parent_task: Task, path: str, args: list[str]) -> int:
        """The ``spawn`` syscall: run the program an executable file names.

        Requires execute permission on the file; the program is identified
        by a ``#!repro:name`` shebang.  The child inherits credentials, cwd
        and — crucially for containment — the parent's tracer: a boxed
        process cannot spawn its way out of the box.
        """
        from .inode import access_allowed

        res = self.vfs.resolve(path, parent_task.cred, cwd=parent_task.cwd)
        node = res.require()
        if node.is_dir:
            raise err(Errno.EACCES, path)
        if not access_allowed(node, parent_task.cred.uid, parent_task.cred.gid, 1):
            raise err(Errno.EACCES, f"no execute permission on {path}")
        factory = self.parse_executable(bytes(node.data), path)
        self.check_table(parent_task.fdtable)  # before fork_copy takes refs
        parent = self.process_of(parent_task)
        proc = self.spawn(
            factory,
            args,
            cred=parent_task.cred,
            cwd=parent_task.cwd,
            ppid=parent.pid if parent else 0,
            tracer=parent.tracer if parent else None,
            comm=path,
            # descriptors survive fork+exec, pipes included
            fdtable=parent_task.fdtable.fork_copy(),
        )
        return proc.pid

    def parse_executable(self, content: bytes, path: str) -> ProgramFactory:
        """Map an executable file's content to a registered program factory."""
        header = content.split(b"\n", 1)[0].decode("utf-8", errors="replace")
        if not header.startswith(SHEBANG):
            raise err(Errno.ENOSYS, f"{path} is not a recognized executable")
        name = header[len(SHEBANG) :].strip()
        factory = self.programs.get(name)
        if factory is None:
            raise err(Errno.ENOENT, f"program {name!r} not registered")
        return factory

    def _do_exit(self, proc: Process, status: int) -> None:
        proc.exit_status = status
        proc.state = _ZOMBIE
        if not proc.is_thread:
            # threads share the table; only a process teardown closes it
            touched_pipes = proc.task.fdtable.pipes()
            proc.task.fdtable.close_all()
            for pipe in touched_pipes:
                self.wake_pipe(pipe)  # a dying peer is EOF/EPIPE for the peer
        if proc.tracer is not None:
            proc.tracer.on_process_exit(proc)
        # orphan our children; init reaps the ones already dead, as it
        # reaps the rest when they exit
        for cpid in proc.children:
            child = self._procs[cpid]
            child.ppid = 0
            if child.state is _ZOMBIE:
                self._drop(child)
        proc.children.clear()
        parent = self._procs.get(proc.ppid)
        if parent is None or not parent.alive:
            self._drop(proc)  # auto-reaped
            if parent:
                parent.children.discard(proc.pid)
        elif parent.waiting_for_child:
            parent.waiting_for_child = False
            parent.pending_result = self._reap(parent, proc)
            parent.state = _READY
            self._ready.append(parent.pid)

    def _reap(self, parent: Process, child: Process) -> WaitResult:
        parent.children.discard(child.pid)
        self._drop(child)
        return WaitResult(pid=child.pid, status=child.exit_status or 0)

    def _drop(self, proc: Process) -> None:
        """Reap ``proc``: it leaves the process table for good."""
        proc.state = _DEAD
        del self._procs[proc.pid]

    def deliver_signal(self, sender_task: Task, pid: int, sig: int) -> int:
        """The ``kill`` syscall body (Unix semantics; boxes add their own rule)."""
        target = self._procs.get(pid)
        if target is None or not target.alive:
            raise err(Errno.ESRCH, f"pid {pid}")
        if not can_signal_unix(sender_task.cred.uid, target.task.cred.uid):
            raise err(Errno.EPERM, f"uid {sender_task.cred.uid} -> pid {pid}")
        self.clock.advance(self.costs.signal_ns, "signal")
        signal = Signal(sig)
        if default_is_fatal(signal):
            self._terminate(target, signal)
        return 0

    def _terminate(self, proc: Process, signal: Signal) -> None:
        """Kill a process from outside (fatal signal)."""
        if proc.state is _READY and proc.pid in self._ready:
            self._ready.remove(proc.pid)
        proc.body.close()
        proc.state = _RUNNING  # so _do_exit's transitions are uniform
        self._do_exit(proc, SIGNAL_EXIT_BASE + int(signal))

    # ------------------------------------------------------------------ #
    # scheduler
    # ------------------------------------------------------------------ #

    def run(self, max_steps: int = 10_000_000) -> None:
        """Run until no process is runnable (blocked processes may remain)."""
        steps = 0
        while self._ready:
            steps += 1
            if steps > max_steps:
                raise RuntimeError(f"scheduler exceeded {max_steps} steps; livelock?")
            self._step()

    def run_to_completion(self, max_steps: int = 10_000_000) -> None:
        """Run and assert that nothing is left blocked (deadlock check)."""
        self.run(max_steps)
        stuck = [p for p in self._procs.values() if p.state is _BLOCKED]
        if stuck:
            names = ", ".join(f"{p.pid}:{p.comm}" for p in stuck)
            raise RuntimeError(f"deadlock: processes still blocked: {names}")

    def _step(self) -> None:
        pid = self._ready.popleft()
        proc = self._procs.get(pid)
        if proc is None or not proc.alive or proc.state is not _READY:
            return
        if self._last_run_pid is not None and self._last_run_pid != pid:
            self.clock.advance(
                self.costs.context_switch_ns + self.costs.cache_flush_ns, "switch"
            )
        self._last_run_pid = pid
        if proc.pending_retry is not None:
            # woken from a pipe wait: re-attempt the parked call without
            # resuming the body (it is still suspended at the same yield)
            proc.state = _RUNNING
            if proc.regs is not None and proc.tracer is not None:
                self._resume_traced_native(proc)
            else:
                request, proc.pending_retry = proc.pending_retry, None
                self._handle_request(proc, request)
            return
        proc.state = _RUNNING
        result, proc.pending_result = proc.pending_result, None
        try:
            request = proc.body.send(result)
        except StopIteration as stop:
            status = stop.value if isinstance(stop.value, int) else 0
            self._do_exit(proc, status)
            return
        except KernelError as exc:
            # A body let a checked error escape: that is a crash of the
            # simulated program, not of the simulator.
            self._do_exit(proc, SIGNAL_EXIT_BASE + 100 + int(exc.errno) % 100)
            return
        self._handle_request(proc, request)

    def _handle_request(self, proc: Process, request: Request) -> None:
        if request.kind is _COMPUTE:
            self.clock.advance(request.compute_ns, "compute")
            proc.pending_result = 0
            proc.state = _READY
            self._ready.append(proc.pid)
            return
        name, args = request.name, request.args
        self.proc_syscalls += 1
        if name == "exit":
            status = args[0] if args else 0
            self.clock.advance(self.costs.syscall_trap_ns, "trap")
            self._do_exit(proc, int(status))
            return
        if name == "waitpid":
            self.clock.advance(self.costs.syscall_trap_ns, "trap")
            self._handle_waitpid(proc)
            return
        # Per-syscall latency histograms (the Fig. 5a ground truth): one
        # observation spanning everything the call cost — traps, context
        # switches, supervisor delegation.  Pipe-parked calls finish out
        # of band and are deliberately not observed.
        telemetry = self.telemetry
        measure = telemetry is not None and telemetry.enabled
        start_ns = self.clock.now_ns if measure else 0
        if proc.tracer is not None:
            result = self._traced_syscall(proc, request)
            if result is PARKED:
                return  # blocked on a pipe mid-call; retried on wakeup
            if measure:
                self._latency(telemetry, name, "traced").observe(
                    self.clock.now_ns - start_ns
                )
        else:
            self.clock.advance(self.costs.syscall_trap_ns, "trap")
            try:
                result = self._dispatch(proc.task, name, args)
            except WouldBlock as wb:
                self._park(proc, request, wb)
                return
            if measure:
                self._latency(telemetry, name, "direct").observe(
                    self.clock.now_ns - start_ns
                )
        if not proc.alive:
            return  # the call terminated the caller (e.g. kill(self))
        proc.pending_result = result
        proc.state = _READY
        self._ready.append(proc.pid)

    def _latency(self, telemetry, name: str, mode: str):
        """The ``syscall.latency_ns`` histogram handle of one op and mode,
        bound once per attached telemetry."""
        hist = self._latency_hists.get((name, mode))
        if hist is None or hist.telemetry is not telemetry:
            hist = telemetry.histogram("syscall.latency_ns", op=name, mode=mode)
            self._latency_hists[name, mode] = hist
        return hist

    def _handle_waitpid(self, proc: Process) -> None:
        zombies = [
            self._procs[cpid]
            for cpid in sorted(proc.children)
            if self._procs[cpid].state is _ZOMBIE
        ]
        if zombies:
            proc.pending_result = self._reap(proc, zombies[0])
            proc.state = _READY
            self._ready.append(proc.pid)
            return
        if not proc.children:
            proc.pending_result = -int(Errno.ECHILD)
            proc.state = _READY
            self._ready.append(proc.pid)
            return
        proc.waiting_for_child = True
        proc.state = _BLOCKED

    # ------------------------------------------------------------------ #
    # pipe blocking: park, wake, retry
    # ------------------------------------------------------------------ #

    def _park(self, proc: Process, request: Request, wb: WouldBlock) -> None:
        """Block ``proc`` until the pipe it hit turns over."""
        proc.pending_retry = request
        proc.state = _BLOCKED
        wb.pipe.park(proc.pid, wb.mode)

    def wake_pipe(self, pipe: Pipe) -> None:
        """Requeue every parked process that can now make progress."""
        for pid in pipe.take_wakeable():
            proc = self._procs.get(pid)
            if (
                proc is not None
                and proc.state is _BLOCKED
                and proc.pending_retry is not None
            ):
                proc.state = _READY
                self._ready.append(pid)

    # ------------------------------------------------------------------ #
    # the traced-syscall path (Figure 4 of the paper)
    # ------------------------------------------------------------------ #

    @property
    def trap_plan(self) -> TrapPlan:
        """The :class:`TrapPlan` of the current cost model; a model that is
        a different object (``CostModel.scaled``, restore, fork) gets a new
        one."""
        plan = self._plan
        if plan is None or plan.costs is not self.costs:
            plan = self._plan = TrapPlan(self.costs)
        return plan

    def _traced_syscall(self, proc: Process, request: Request) -> Any:
        """Execute one syscall of a traced process under supervisor control.

        Sequence (paper Figure 4a): (1) child traps, (2) supervisor notified
        at entry stop, (3) supervisor implements the action with its own
        syscalls, (4) supervisor rewrites the call (usually into getpid),
        (5) the rewritten call executes, (6) supervisor adjusts the result
        at the exit stop, (7) child resumes with the final value.  Each
        stop and resume is one step of :attr:`trap_plan`.
        """
        plan = self.trap_plan
        tracer = proc.tracer
        proc.regs = Regs(name=request.name, args=request.args)
        self.clock.apply(
            plan.stop_getregs if getattr(tracer, "delegating", False) else plan.stop
        )
        tracer.on_syscall_entry(proc)
        if not proc.alive:
            # the supervisor's delegated action killed the child itself
            # (kill aimed at its own pid); there is nothing to resume
            proc.regs = None
            return None
        self.clock.apply(plan.resume_native)
        return self._run_traced_native(proc, request, plan)

    def _run_traced_native(self, proc: Process, request: Request, plan: TrapPlan) -> Any:
        """Execute the (possibly rewritten) call natively, its trap already
        charged, then the exit stop; a delegating tracer's nullified call
        is charged but not run.  Returns the final result, or
        :data:`PARKED` if the native call blocked on a pipe (the process is
        parked; :meth:`_step` calls :meth:`_resume_traced_native` on
        wakeup)."""
        regs = proc.regs
        tracer = proc.tracer
        delegating = getattr(tracer, "delegating", False)
        if not (delegating and regs.nullified):
            try:
                regs.retval = self._dispatch(proc.task, regs.name, regs.args)
            except WouldBlock as wb:
                self._park(proc, request, wb)
                return PARKED
        if not delegating:
            self.clock.apply(plan.stop)
        elif regs.nullified:
            regs.result_paid = True
            self.clock.apply(plan.stop_getregs_poke)
        else:
            self.clock.apply(plan.stop_getregs)
        tracer.on_syscall_exit(proc)
        self.clock.apply(plan.resume)
        result = proc.regs.retval
        proc.regs = None
        proc.pending_retry = None
        return result

    def _resume_traced_native(self, proc: Process) -> None:
        """A traced process woke from a pipe wait mid-call: finish the call."""
        request = proc.pending_retry
        assert request is not None
        plan = self.trap_plan
        self.clock.apply(plan.native)
        result = self._run_traced_native(proc, request, plan)
        if result is PARKED or not proc.alive:
            return
        proc.pending_result = result
        proc.state = _READY
        self._ready.append(proc.pid)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def process(self, pid: int) -> Process:
        try:
            return self._procs[pid]
        except KeyError:
            raise err(Errno.ESRCH, f"pid {pid}") from None

    def processes(self) -> list[Process]:
        return list(self._procs.values())

    def live_processes(self) -> list[Process]:
        return [p for p in self._procs.values() if p.alive]
