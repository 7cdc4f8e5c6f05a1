"""The interposition supervisor: Parrot with identity boxing.

One :class:`Supervisor` plays the role the paper's modified Parrot plays —
an ordinary, unprivileged user process that runs visiting applications
under ptrace, implements their system calls by delegation, and attaches a
free-form identity to every process and resource (§3, §5).

The control flow per trapped syscall is Figure 4(a) verbatim:

1. the child's syscall traps; the kernel stops it and wakes us
   (machine charges the stop's context switches),
2. we peek the registers, decode the call, and bind its path arguments
   into an :class:`~repro.core.pipeline.Operation`,
3. the shared operation pipeline runs the ACL reference monitor, audit,
   and denial accounting, then the registered handler implements the
   action with our *own* syscalls (delegation),
4. we rewrite the child's call — usually into ``getpid()``, or into a
   ``pread``/``pwrite`` on the I/O channel for bulk data,
5. the rewritten call executes natively,
6. at the exit stop we poke the result we computed into the return
   register (or run a completion action for channel writes),
7. the child resumes, none the wiser.

The same pipeline machinery fronts the Chirp server's RPC surface
(:mod:`repro.chirp.server`), so the reference monitor exists exactly once.
Strace-style recording stays at the syscall-*exit* stop rather than being
an entry-side interceptor: results only materialize there.

Escape-proofing: the child's *kernel-visible* descriptor table contains
only the I/O channel, its credentials are the supervising user's, and
every other effect must pass through a trapped syscall — so "users cannot
escape from an identity box" (§1) holds by construction here just as it
does under real ptrace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.aclfs import AclPolicy
from ..core.audit import AuditLog
from ..core.identity import validate_identity
from ..core.ops import REQUIRED
from ..core.pipeline import BoundPath, Operation, build_pipeline
from ..kernel.errno import Errno, KernelError, err
from ..kernel.vfs import join, normalize
from .drivers import Driver, LocalDriver, Namespace
from .handlers import SYSCALL_SIGNATURES, SyscallContext, build_syscall_registry
from .iochannel import IOChannel
from .signal_policy import SameIdentityPolicy
from .table import NO_RESULT, ChildState, ProcessTable

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.machine import Machine
    from ..kernel.process import Process, Regs
    from ..kernel.users import Credentials

#: Transfers at or below this many bytes move by ptrace peek/poke; larger
#: ones go through the I/O channel (§5).  Tunable for the ablation bench.
DEFAULT_SMALL_IO_THRESHOLD = 32

#: One registry shared by every supervisor, with its binding plans: the
#: syscall op table is fixed at import time and never mutated after
#: construction, so rebuilding its ~40 OpSpecs per supervisor is pure
#: waste — and fork-heavy loops (the snapshot fuzzer re-hosts a
#: supervisor per forked world) feel it.
_SHARED_TABLES = None


def _shared_tables():
    """The lazily built, process-wide syscall :class:`OpRegistry`, and per
    syscall ``name -> (spec, argument names, their defaults)``."""
    global _SHARED_TABLES
    if _SHARED_TABLES is None:
        registry = build_syscall_registry()
        plans = {
            name: (registry.get(name), tuple(a for a, _ in sig), tuple(d for _, d in sig))
            for name, sig in SYSCALL_SIGNATURES.items()
        }
        _SHARED_TABLES = registry, plans
    return _SHARED_TABLES


class Supervisor:
    """A delegating system-call interposition agent with identity boxing."""

    def __init__(
        self,
        machine: "Machine",
        owner_cred: "Credentials",
        *,
        policy: AclPolicy | None = None,
        audit: AuditLog | None = None,
        small_io_threshold: int = DEFAULT_SMALL_IO_THRESHOLD,
        acl_cache: bool = True,
        signal_policy=None,
        telemetry=None,
    ) -> None:
        self.machine = machine
        self.owner_cred = owner_cred
        #: the supervisor's own host task; its table's stamp names the world
        #: this supervisor was built against, and adopting into a forked or
        #: restored world must go through :meth:`fork` instead
        self.task = machine.host_task(owner_cred)
        self.policy = policy or AclPolicy(machine, self.task, cache_enabled=acl_cache)
        self.audit = audit
        #: metrics sink; defaults to whatever is attached to the machine,
        #: so one `instrument(machine)` covers every surface on the host
        self.telemetry = (
            telemetry if telemetry is not None else getattr(machine, "telemetry", None)
        )
        self.small_io_threshold = small_io_threshold
        self.signal_policy = signal_policy or SameIdentityPolicy()
        self.channel = IOChannel(machine, self.task)
        self.table = ProcessTable()
        #: optional strace-style recorder (see :mod:`.strace`)
        self.strace = None
        self.namespace = Namespace(LocalDriver(machine, self.task))
        #: statistics for reporting
        self.syscalls_handled = 0
        #: the shared operation pipeline (registry + interceptor chain)
        self.registry, self._plans = _shared_tables()
        self.pipeline = build_pipeline(
            self.registry,
            policy=self.policy,
            clock=machine.clock,
            audit_log=audit,
            resolve_identity=lambda op, ctx: ctx.state.identity,
            telemetry=self.telemetry,
        )

    @property
    def denials(self) -> int:
        """Ops the policy refused (EACCES or EPERM), read off the
        pipeline's :class:`DenialCounter`, the one place a denial is
        counted."""
        return self.pipeline.denial_counter.total()

    # ------------------------------------------------------------------ #
    # box membership
    # ------------------------------------------------------------------ #

    def adopt(
        self,
        proc: "Process",
        identity: str,
        home: str,
        passwd_redirect: str = "",
    ) -> ChildState:
        """Place a process under this supervisor with a visiting identity.

        EBADF once the world has moved on from the supervisor's own table.
        """
        self.machine.check_table(self.task.fdtable)
        validate_identity(identity)
        state = ChildState(
            pid=proc.pid,
            identity=identity,
            home=home,
            passwd_redirect=passwd_redirect,
        )
        self.table.adopt(state)
        self.channel.attach_child(proc)
        return state

    def fork(self, machine: "Machine") -> "Supervisor":
        """Re-host this supervisor's configuration on a forked world.

        Everything bound to the parent world — host task, I/O channel,
        process table, ACL cache, pipeline — is rebuilt fresh against
        ``machine``, and the counters start at zero so a forked world's
        metrics never blend into the parent's.  Only *configuration*
        (owner name, thresholds, whether the ACL cache is on, signal
        policy, audit class) carries over; the audit trail itself stays
        with the parent.  Telemetry comes from the forked machine, which
        :meth:`Machine.fork` already detached into a fresh trace lineage.
        """
        owner = machine.users.credentials_for(self.owner_cred.username)
        audit = type(self.audit)() if self.audit is not None else None
        return Supervisor(
            machine,
            owner,
            audit=audit,
            small_io_threshold=self.small_io_threshold,
            acl_cache=self.policy.cache_enabled,
            signal_policy=self.signal_policy,
            telemetry=getattr(machine, "telemetry", None),
        )

    def mount(self, prefix: str, driver: Driver) -> None:
        """Attach a service driver (e.g. Chirp under ``/chirp``)."""
        self.namespace.mount(prefix, driver)

    # ------------------------------------------------------------------ #
    # Tracer interface (called by the kernel while the child is stopped)
    # ------------------------------------------------------------------ #

    def on_syscall_entry(self, proc: "Process") -> None:
        state = self.table.get(proc.pid)
        state.reset_syscall()
        regs = self.machine.trace.peek_regs(proc)
        state.current_call = (regs.name, regs.args)
        self.syscalls_handled += 1
        ctx = SyscallContext(self, proc, state, regs)
        try:
            op = self._bind(proc, state, regs)
            self.pipeline.run(op, ctx)
        except KernelError as exc:
            self._finish(proc, state, -int(exc.errno))

    def on_syscall_exit(self, proc: "Process") -> None:
        state = self.table.get(proc.pid)
        # We must at least look at the stop (a real supervisor can't skip
        # its wait() wakeup); peeking the return register is one word.
        self.machine.trace.peek_regs(proc)
        if state.exit_action is not None:
            action, state.exit_action = state.exit_action, None
            action(proc, state)
        elif state.exit_value is not NO_RESULT:
            self.machine.trace.set_result(proc, state.exit_value)
            state.exit_value = NO_RESULT
        if self.strace is not None and state.current_call is not None:
            name, args = state.current_call
            self.strace.record(
                self.machine.clock.now_ns,
                proc.pid,
                state.identity,
                name,
                args,
                proc.regs.retval if proc.regs is not None else None,
            )

    def on_process_exit(self, proc: "Process") -> None:
        state = self.table.forget(proc.pid)
        if state is not None and not state.shares_fds:
            for fd in state.open_fds():
                vfd = state.drop(fd)
                try:
                    vfd.driver.close(vfd.handle)
                except KernelError as exc:
                    # nothing to reclaim, but a leaked descriptor that also
                    # fails to close is worth a trace in the audit record
                    self.pipeline.audit.emit(
                        state.identity,
                        "close-on-exit",
                        vfd.path,
                        False,
                        f"fd {fd}: {exc}",
                    )

    # ------------------------------------------------------------------ #
    # binding a trapped call into a pipeline operation
    # ------------------------------------------------------------------ #

    def _bind(self, proc: "Process", state: ChildState, regs: "Regs") -> Operation:
        """Decode registers into an :class:`Operation` with bound paths."""
        name = regs.name
        plan = self._plans.get(name)
        if plan is None:
            raise err(Errno.ENOSYS, f"boxed syscall {name!r} unimplemented")
        spec, names, defaults = plan
        values = regs.args
        if len(values) < len(names):
            missing = defaults[len(values):]
            if REQUIRED in missing:
                arg = names[len(values) + missing.index(REQUIRED)]
                raise err(Errno.EFAULT, f"{name} missing argument {arg!r}")
            values = (*values, *missing)
        args = dict(zip(names, values))
        paths = []
        for path_spec in spec.paths:
            text = self._peek_path(proc, args[path_spec.field])
            if not text:
                raise err(Errno.ENOENT, "empty path")
            full = normalize(text if text.startswith("/") else join(proc.task.cwd, text))
            if path_spec.passwd_redirect and state.passwd_redirect and full == "/etc/passwd":
                full = state.passwd_redirect  # Figure 2: reads see the private copy
            driver, sub = self.namespace.route(full)
            paths.append(
                BoundPath(path_spec, text, full, sub, driver, driver.requires_local_acl)
            )
        return Operation(name, "syscall", args, None, proc.task.cwd, paths, {}, spec)

    # ------------------------------------------------------------------ #
    # helpers used by the binder and the registered handlers
    # ------------------------------------------------------------------ #

    def _finish(self, proc: "Process", state: ChildState, value: Any) -> None:
        """Nullify the pending call and arrange ``value`` as its result."""
        self.machine.trace.nullify(proc)
        state.exit_value = value

    def _peek_path(self, proc: "Process", path: Any) -> str:
        """Fetch a path argument from child memory (charges word traffic)."""
        if not isinstance(path, str):
            raise err(Errno.EFAULT, f"bad path argument {path!r}")
        return self.machine.trace.peek_string_cost(proc, path)

