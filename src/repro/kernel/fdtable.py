"""Open-file objects and per-process descriptor tables.

As in a real kernel, an *open file description* (offset + flags + inode) is
distinct from a *file descriptor* (a small integer naming it in one
process), and descriptions are shared across ``fork`` and ``dup``.  The
interposition agent relies on this split: Parrot keeps its own table of open
files per traced process and maps the child's descriptors onto its own
(§3, "it must ... keep tables of open files").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errno import Errno, err
from .inode import Inode
from .pipes import Pipe

if TYPE_CHECKING:  # pragma: no cover
    from .localfs import LocalFS


class OpenFlags(enum.IntFlag):
    """Subset of ``open(2)`` flags honoured by the simulated kernel."""

    O_RDONLY = 0o0
    O_WRONLY = 0o1
    O_RDWR = 0o2
    O_CREAT = 0o100
    O_EXCL = 0o200
    O_TRUNC = 0o1000
    O_APPEND = 0o2000
    O_DIRECTORY = 0o200000

    @property
    def accmode(self) -> "OpenFlags":
        return OpenFlags(int(self) & O_ACCMODE)

    @property
    def readable(self) -> bool:
        return can_read(int(self))

    @property
    def writable(self) -> bool:
        return can_write(int(self))


# Plain-int twins of the flags, for bit tests on the open and descriptor
# paths and for the flag sets callers open with on every op: an
# ``OpenFlags`` operand makes ``&`` and ``|`` build a new enum member, and
# on CPython 3.11 even naming a member through the class runs the enum
# metaclass's ``__getattr__`` hook.
O_ACCMODE = 0o3
O_RDONLY = int(OpenFlags.O_RDONLY)
O_WRONLY = int(OpenFlags.O_WRONLY)
O_RDWR = int(OpenFlags.O_RDWR)
O_CREAT = int(OpenFlags.O_CREAT)
O_EXCL = int(OpenFlags.O_EXCL)
O_TRUNC = int(OpenFlags.O_TRUNC)
O_APPEND = int(OpenFlags.O_APPEND)
O_DIRECTORY = int(OpenFlags.O_DIRECTORY)
#: open for writing, creating the file if absent
O_WRONLY_CREAT = O_WRONLY | O_CREAT
#: ``creat(2)``: open for writing, creating or emptying the file
O_WRONLY_CREAT_TRUNC = O_WRONLY | O_CREAT | O_TRUNC


def can_read(flags: int) -> bool:
    """Whether the access mode of ``flags`` allows reading."""
    return (flags & O_ACCMODE) in (0o0, 0o2)  # O_RDONLY, O_RDWR


def can_write(flags: int) -> bool:
    """Whether the access mode of ``flags`` allows writing."""
    return (flags & O_ACCMODE) in (0o1, 0o2)  # O_WRONLY, O_RDWR


#: Hard per-process descriptor limit (RLIMIT_NOFILE analogue).
FD_LIMIT = 1024


@dataclass(slots=True)
class OpenFile:
    """A shared open file description.

    Regular files reference an inode; pipe ends reference a
    :class:`~repro.kernel.pipes.Pipe` instead (``inode`` is None and
    ``pipe_end`` says which side this description holds).  A description
    minted by :meth:`LocalFS.open_file <repro.kernel.localfs.LocalFS.open_file>`
    holds its inode open there: ``fs`` names the store that counted the
    hold, and the table releases it when the last descriptor goes.
    """

    inode: Inode | None
    flags: int  #: ``open(2)`` flag bits (see :class:`OpenFlags`)
    path: str  #: resolved path at open time (used for ACL audit records)
    offset: int = 0
    refcount: int = 1
    pipe: Pipe | None = None
    pipe_end: str = ""  #: "r" or "w" when this is a pipe end
    fs: "LocalFS | None" = None  #: the store counting this open, if any

    def seek_end(self) -> None:
        if self.inode is not None:
            self.offset = self.inode.size


@dataclass
class FDTable:
    """Per-process mapping of descriptor numbers to open file descriptions.

    A table belongs to one process in one world, and ``incarnation`` is
    the stamp saying which world: the :attr:`LocalFS.incarnation
    <repro.kernel.localfs.LocalFS.incarnation>` current when the machine
    built or adopted the table, or when the table took its first counted
    description.  After a ``restore`` (or in a fork) the stamp is stale:
    the syscall layer answers ``EBADF`` for every descriptor in the table,
    ``Machine.spawn`` refuses to adopt it, and closing its descriptions
    releases nothing in the rewound store, whose inode numbers they may
    alias.  ``None`` means unstamped, which only a table holding no
    counted description can be; it is never checked.
    """

    _files: dict[int, OpenFile] = field(default_factory=dict)
    _next_fd: int = 3  # 0..2 are reserved for std streams
    #: the world this table belongs to (identity-compared; see above)
    incarnation: object = None

    def install(self, of: OpenFile, fd: int | None = None) -> int:
        """Install a description at the lowest free fd (or a specific one)."""
        if fd is None:
            fd = self._next_fd
            while fd in self._files:
                fd += 1
            if fd >= FD_LIMIT:
                raise err(Errno.EMFILE, f"fd limit {FD_LIMIT} reached")
            self._next_fd = fd + 1
        else:
            if fd in self._files:
                self._drop(fd)
        if of.fs is not None and self.incarnation is None:
            self.incarnation = of.fs.incarnation
        self._files[fd] = of
        return fd

    def get(self, fd: int) -> OpenFile:
        try:
            return self._files[fd]
        except KeyError:
            raise err(Errno.EBADF, f"fd {fd}") from None

    def dup(self, fd: int) -> int:
        """``dup(2)``: new descriptor sharing the same description."""
        of = self.get(fd)
        of.refcount += 1
        return self.install(of)

    def _drop(self, fd: int) -> None:
        of = self._files.pop(fd)
        of.refcount -= 1
        if of.refcount == 0:
            if of.pipe is not None:
                of.pipe.drop_end(of.pipe_end)
            elif of.fs is not None and self.incarnation is of.fs.incarnation:
                of.fs.release(of)  # a stale table's holds went with its world

    def close(self, fd: int) -> None:
        if fd not in self._files:
            raise err(Errno.EBADF, f"fd {fd}")
        self._drop(fd)
        if fd < self._next_fd:
            self._next_fd = max(fd, 3)

    def close_all(self) -> None:
        for fd in list(self._files):
            self._drop(fd)

    def open_fds(self) -> list[int]:
        return sorted(self._files)

    def pipes(self) -> list[Pipe]:
        """Distinct pipes referenced by this table (for exit-time wakeups)."""
        seen: list[Pipe] = []
        for of in self._files.values():
            if of.pipe is not None and of.pipe not in seen:
                seen.append(of.pipe)
        return seen

    def fork_copy(self) -> "FDTable":
        """Descriptor table for a forked child: same descriptions, shared offsets."""
        child = FDTable()
        child._next_fd = self._next_fd
        child.incarnation = self.incarnation
        for fd, of in self._files.items():
            of.refcount += 1
            child._files[fd] = of
        return child

    # ------------------------------------------------------------------ #
    # snapshot protocol (see repro.kernel.Snapshotable)
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> object:
        """Capture the table plus per-description cursor state.

        Pipe ends are refused (EBUSY): their end-of-stream bookkeeping
        lives on the shared :class:`~repro.kernel.pipes.Pipe`, so a table
        holding one is not independently restorable.  Descriptions that
        hold an inode open are refused for the same reason: the open
        count lives in their :class:`~repro.kernel.localfs.LocalFS`, and
        a rewound table would revive holds the store already gave back.
        World-level snapshots never need this — ``Machine.snapshot``
        requires quiescence and a fork starts with fresh tables.
        """
        for of in self._files.values():
            if of.pipe is not None:
                raise err(Errno.EBUSY, "cannot snapshot a table holding a pipe end")
            if of.fs is not None:
                raise err(Errno.EBUSY, "cannot snapshot a table holding a counted open")
        descs = {id(of): of for of in self._files.values()}
        return (
            dict(self._files),
            [(of, of.refcount, of.offset) for of in descs.values()],
            self._next_fd,
            self.incarnation,
        )

    def restore_state(self, state: object) -> None:
        files, descs, next_fd, incarnation = state
        self._files = dict(files)
        self._next_fd = next_fd
        self.incarnation = incarnation
        for of, refcount, offset in descs:
            of.refcount = refcount
            of.offset = offset

    def __len__(self) -> int:
        return len(self._files)
