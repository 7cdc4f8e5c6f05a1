"""Inode structures for the simulated filesystem.

A faithful-enough Unix inode model: files, directories and symlinks, with
mode bits, an owner uid/gid, a link count, and timestamps in simulated
nanoseconds.  Hard links work the way they do on a real Unix — several
directory entries naming one inode — which matters to the paper: Parrot must
*refuse* hard links to files the boxed user cannot access, because there is
no way to find "the" containing directory of a multiply-linked inode to
check its ACL (§6, "Overlooking indirect paths").
"""

from __future__ import annotations

import enum
import stat as stat_mod
from dataclasses import dataclass, field


class FileType(enum.Enum):
    """Kind of object an inode describes."""

    FILE = "file"
    DIR = "dir"
    SYMLINK = "symlink"


# The members bound once for the walk and the inode predicates: a lookup
# through the class costs ~10x a global on CPython 3.11 (DESIGN.md §12,
# host-time conventions).
_FILE = FileType.FILE
_DIR = FileType.DIR
_SYMLINK = FileType.SYMLINK

# Permission-bit aliases (octal, as in <sys/stat.h>).
S_IRUSR = 0o400
S_IWUSR = 0o200
S_IXUSR = 0o100
S_IRGRP = 0o040
S_IWGRP = 0o020
S_IXGRP = 0o010
S_IROTH = 0o004
S_IWOTH = 0o002
S_IXOTH = 0o001

DEFAULT_FILE_MODE = 0o644
DEFAULT_DIR_MODE = 0o755


@dataclass
class Inode:
    """One filesystem object.

    ``data`` is the byte content for regular files; ``entries`` maps names to
    inode numbers for directories; ``symlink_target`` holds the link text for
    symlinks.  Exactly one of the three is meaningful, selected by ``ftype``.
    A link with a ``link_root`` resolves an absolute target below it.
    """

    ino: int
    ftype: FileType
    mode: int
    uid: int
    gid: int
    nlink: int = 1
    data: bytearray = field(default_factory=bytearray)
    entries: dict[str, int] = field(default_factory=dict)
    symlink_target: str = ""
    link_root: str = ""
    atime_ns: int = 0
    mtime_ns: int = 0
    ctime_ns: int = 0
    #: False while ``data`` is structurally shared with a frozen snapshot
    #: copy; the store takes a private copy before any data mutation, so a
    #: metadata-only touch (chmod, atime) never pays for the file bytes.
    owns_data: bool = True

    def clone(self) -> "Inode":
        """Copy-on-write twin for the mutable layer of a snapshotted store.

        Metadata and directory entries are copied (they are small and
        always mutable); file bytes stay shared with the frozen original
        until a data write claims ownership (see ``LocalFS._own_data``).
        """
        twin = Inode(
            ino=self.ino,
            ftype=self.ftype,
            mode=self.mode,
            uid=self.uid,
            gid=self.gid,
            nlink=self.nlink,
            data=self.data,
            entries=dict(self.entries),
            symlink_target=self.symlink_target,
            link_root=self.link_root,
            atime_ns=self.atime_ns,
            mtime_ns=self.mtime_ns,
            ctime_ns=self.ctime_ns,
            owns_data=False,
        )
        return twin

    @property
    def size(self) -> int:
        """Apparent size in bytes (symlinks report target length, like Linux)."""
        ftype = self.ftype
        if ftype is _FILE:
            return len(self.data)
        if ftype is _SYMLINK:
            return len(self.symlink_target)
        return len(self.entries)

    @property
    def is_dir(self) -> bool:
        return self.ftype is _DIR

    @property
    def is_file(self) -> bool:
        return self.ftype is _FILE

    @property
    def is_symlink(self) -> bool:
        return self.ftype is _SYMLINK

    def st_mode(self) -> int:
        """Full ``st_mode`` word combining file type and permission bits."""
        ftype = self.ftype
        if ftype is _FILE:
            return stat_mod.S_IFREG | (self.mode & 0o7777)
        if ftype is _DIR:
            return stat_mod.S_IFDIR | (self.mode & 0o7777)
        return stat_mod.S_IFLNK | (self.mode & 0o7777)


@dataclass(frozen=True)
class StatResult:
    """What ``stat(2)`` returns; a frozen snapshot of an inode's metadata."""

    st_ino: int
    st_mode: int
    st_nlink: int
    st_uid: int
    st_gid: int
    st_size: int
    st_atime_ns: int
    st_mtime_ns: int
    st_ctime_ns: int

    @property
    def is_dir(self) -> bool:
        return stat_mod.S_ISDIR(self.st_mode)

    @property
    def is_file(self) -> bool:
        return stat_mod.S_ISREG(self.st_mode)

    @property
    def is_symlink(self) -> bool:
        return stat_mod.S_ISLNK(self.st_mode)


def stat_of(inode: Inode) -> StatResult:
    """Build a :class:`StatResult` snapshot from an inode.

    The fields are filled in directly, not through the frozen dataclass's
    ``__init__``, which pays ``object.__setattr__`` per field; the record
    is the same frozen one (``tests/properties/test_prop_stat_of.py``).
    """
    st = object.__new__(StatResult)
    fields = st.__dict__
    fields["st_ino"] = inode.ino
    fields["st_mode"] = inode.st_mode()
    fields["st_nlink"] = inode.nlink
    fields["st_uid"] = inode.uid
    fields["st_gid"] = inode.gid
    fields["st_size"] = inode.size
    fields["st_atime_ns"] = inode.atime_ns
    fields["st_mtime_ns"] = inode.mtime_ns
    fields["st_ctime_ns"] = inode.ctime_ns
    return st


def access_allowed(inode: Inode, uid: int, gid: int, want: int) -> bool:
    """Classic Unix permission check.

    ``want`` is a 3-bit mask (4=read, 2=write, 1=execute).  uid 0 (root)
    bypasses read/write checks and needs any-execute for execute, as on
    Linux.
    """
    if uid == 0:
        if want & 1:
            return bool(inode.mode & (S_IXUSR | S_IXGRP | S_IXOTH))
        return True
    if uid == inode.uid:
        bits = (inode.mode >> 6) & 0o7
    elif gid == inode.gid:
        bits = (inode.mode >> 3) & 0o7
    else:
        bits = inode.mode & 0o7
    return (bits & want) == want
