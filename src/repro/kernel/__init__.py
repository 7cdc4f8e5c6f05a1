"""Simulated Unix kernel substrate.

Everything the paper's user-level implementation assumes from the host
operating system — processes, a filesystem, descriptors, accounts, signals,
and the ptrace debugging interface — implemented as a deterministic
simulation with a calibrated hardware cost model (see DESIGN.md §2 for the
substitution rationale).
"""

from typing import Protocol, runtime_checkable

from .cow import CowMap
from .errno import Errno, KernelError, err
from .fdtable import FDTable, OpenFile, OpenFlags
from .inode import FileType, Inode, StatResult, access_allowed, stat_of
from .localfs import LocalFS
from .machine import Machine, WaitResult, WorldSnapshot, SHEBANG
from .memory import AddressSpace, WORD_SIZE, words_for
from .pipes import PIPE_CAPACITY, Pipe, WouldBlock
from .process import (
    Body,
    ProcContext,
    Process,
    ProcessState,
    ProgramFactory,
    Regs,
    Request,
    RequestKind,
    SysProxy,
    Task,
)
from .ptrace import TraceSession, Tracer, REGS_WORDS
from .signals import Signal, can_signal_unix, default_is_fatal
from .syscalls import R_OK, W_OK, X_OK, F_OK, SEEK_CUR, SEEK_END, SEEK_SET
from .timing import Clock, CostModel, NS_PER_MS, NS_PER_S, NS_PER_US
from .users import Account, Credentials, NOBODY_NAME, NOBODY_UID, ROOT_UID, UserDB
from .vfs import VFS, Resolution, WalkStats, basename, dirname, join, normalize, split_path


@runtime_checkable
class Snapshotable(Protocol):
    """The uniform copy-on-write snapshot protocol of the kernel layer.

    Every mutable world store — clock, account database, filesystem (via
    the VFS seam), descriptor tables, address spaces, pipes, and the
    :class:`Machine` itself — implements these two methods.
    ``snapshot_state`` returns an opaque, immutable-by-convention token in
    O(1) (frozen CoW layers for the dict-shaped stores, small value copies
    elsewhere); ``restore_state`` rewinds the object to that token.
    Components that cannot be captured in their current state (live
    processes, parked pipes, tables holding pipe ends) raise ``EBUSY``
    rather than snapshotting something unrestorable.  ``Machine.snapshot``
    composes the per-store tokens into one versioned
    :class:`~repro.kernel.machine.WorldSnapshot`.
    """

    def snapshot_state(self) -> object: ...

    def restore_state(self, state: object) -> None: ...


__all__ = [
    "AddressSpace",
    "Account",
    "Body",
    "Clock",
    "CostModel",
    "CowMap",
    "Credentials",
    "Errno",
    "FDTable",
    "FileType",
    "F_OK",
    "Inode",
    "KernelError",
    "LocalFS",
    "Machine",
    "NOBODY_NAME",
    "NOBODY_UID",
    "NS_PER_MS",
    "NS_PER_S",
    "NS_PER_US",
    "OpenFile",
    "OpenFlags",
    "PIPE_CAPACITY",
    "Pipe",
    "WouldBlock",
    "ProcContext",
    "Process",
    "ProcessState",
    "ProgramFactory",
    "REGS_WORDS",
    "ROOT_UID",
    "R_OK",
    "Regs",
    "Request",
    "RequestKind",
    "Resolution",
    "SEEK_CUR",
    "SEEK_END",
    "SEEK_SET",
    "SHEBANG",
    "Signal",
    "Snapshotable",
    "StatResult",
    "SysProxy",
    "Task",
    "TraceSession",
    "Tracer",
    "UserDB",
    "VFS",
    "WORD_SIZE",
    "WaitResult",
    "WalkStats",
    "WorldSnapshot",
    "W_OK",
    "X_OK",
    "access_allowed",
    "basename",
    "can_signal_unix",
    "default_is_fatal",
    "dirname",
    "err",
    "join",
    "normalize",
    "split_path",
    "stat_of",
    "words_for",
]
