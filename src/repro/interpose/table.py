"""Supervisor-side bookkeeping for boxed children.

Parrot "must track a tree of processes [and] keep tables of open files"
(§3).  The child's own kernel descriptor table holds nothing but the I/O
channel; every file the child believes it has open actually lives in the
supervisor's table.  :class:`VirtualFD` records that mapping, plus the
driver that owns the handle (local delegation or a remote service such as
Chirp mounted under ``/chirp``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..kernel.errno import Errno, err

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process
    from .drivers import Driver

#: Sentinel distinguishing "no forced result" from a result of None.
NO_RESULT = object()


@dataclass
class VirtualFD:
    """One descriptor as the boxed child perceives it."""

    driver: "Driver"
    handle: Any  #: driver-private handle (an int fd for the local driver)
    path: str  #: path the child opened (post-redirect, absolute)
    flags: int
    #: Offset mirror for drivers that are stateless (e.g. remote protocols
    #: that only support pread/pwrite); the local driver keeps offset state
    #: in the supervisor's own descriptor instead.
    offset: int = 0


@dataclass
class ChildState:
    """Everything the supervisor knows about one boxed process."""

    pid: int
    identity: str
    home: str
    #: absolute path of the private /etc/passwd copy ('' = no redirect)
    passwd_redirect: str = ""
    vfds: dict[int, VirtualFD] = field(default_factory=dict)
    _next_fd: int = 3
    #: continuation to run at the syscall-exit stop, if any
    exit_action: Callable[["Process", "ChildState"], None] | None = None
    #: value to poke into the return register at the exit stop
    exit_value: Any = NO_RESULT
    #: ``(supervisor, vfd, channel offset, file offset or None)`` of a write
    #: staged through the I/O channel, for its exit-stop completion
    channel_write: tuple | None = None
    #: the call as originally attempted (before nullify/rewrite), kept so
    #: strace-style recording reports what the *child* asked for
    current_call: tuple | None = None
    #: threads share their creator's vfd dict; their exit must not close it
    shares_fds: bool = False

    # ------------------------------------------------------------------ #

    def install(self, vfd: VirtualFD) -> int:
        fd = self._next_fd
        while fd in self.vfds:
            fd += 1
        self._next_fd = fd + 1
        self.vfds[fd] = vfd
        return fd

    def get(self, fd: int) -> VirtualFD:
        try:
            return self.vfds[fd]
        except KeyError:
            raise err(Errno.EBADF, f"boxed fd {fd}") from None

    def drop(self, fd: int) -> VirtualFD:
        vfd = self.get(fd)
        del self.vfds[fd]
        if fd < self._next_fd:
            self._next_fd = max(fd, 3)
        return vfd

    def open_fds(self) -> list[int]:
        return sorted(self.vfds)

    # -- per-syscall scratch -------------------------------------------- #

    def reset_syscall(self) -> None:
        self.exit_action = None
        self.exit_value = NO_RESULT
        self.current_call = None


@dataclass
class ProcessTable:
    """All children currently inside one supervisor's boxes."""

    children: dict[int, ChildState] = field(default_factory=dict)

    def adopt(self, state: ChildState) -> None:
        self.children[state.pid] = state

    def get(self, pid: int) -> ChildState:
        try:
            return self.children[pid]
        except KeyError:
            raise err(Errno.ESRCH, f"pid {pid} is not in any identity box") from None

    def forget(self, pid: int) -> ChildState | None:
        return self.children.pop(pid, None)

    def pids_with_identity(self, identity: str) -> list[int]:
        return sorted(
            pid for pid, st in self.children.items() if st.identity == identity
        )

    def __contains__(self, pid: int) -> bool:
        return pid in self.children

    def __len__(self) -> int:
        return len(self.children)
