"""In-memory filesystem: the inode table and directory-level operations.

This is the storage half of the VFS split: :class:`LocalFS` owns inodes and
implements single-directory operations (create, link, unlink, readdir...),
while :mod:`repro.kernel.vfs` owns multi-component path resolution and the
symlink-following loop.  Keeping them separate keeps each testable on its own
and mirrors how a real kernel separates the namei machinery from a concrete
filesystem implementation.

The inode table is a :class:`~repro.kernel.cow.CowMap`, which makes the
whole filesystem snapshotable in O(1) and forkable with structural sharing:
after a snapshot, the first mutation of any inode clones just that inode
into the mutable layer (:meth:`LocalFS.writable`); file *bytes* stay shared
even then, until a data write claims them (:meth:`LocalFS._own_data`).
Callers therefore never mutate an inode object directly — every mutation
goes through a ``LocalFS`` method so the copy-on-write step cannot be
skipped.

:attr:`LocalFS.generation` counts the mutations a path walk can observe:
directory entries, directory parents, symlink targets, the mode and owner
bits a traverse check reads, new inodes and world rewinds.  ``link``,
``unlink``, ``rmdir``, ``rename``, ``set_mode`` and ``set_owner`` bump it,
as do :meth:`LocalFS._alloc` (so ``create_file``, ``mkdir`` and
``symlink``) and :meth:`LocalFS.restore_state`.  Data-only
writes (``write_at``, ``truncate``, ``touch_atime``) do not: they may clone
an inode, but a walk reaches the clone by its number.  The path resolver's
memo (:mod:`repro.kernel.vfs`) is valid only while the generation holds.

A file lives while a directory entry names it or an open description
holds it, as on a Unix kernel.  Every inode-backed
:class:`~repro.kernel.fdtable.OpenFile` is minted by :meth:`LocalFS.open_file`,
which counts the hold in one dict (``_opens``, inode number -> open
descriptions); the descriptor table calls :meth:`LocalFS.release` when a
description's last descriptor goes.  ``unlink`` and ``rmdir`` (and so a
rename over an existing name) park a dead inode in ``_orphans`` only while
some description holds it, and the last release drops it, so an unlinked
file that nothing holds is freed at once.

:attr:`LocalFS.incarnation` names the world this store currently holds:
a fresh object at construction and at every :meth:`LocalFS.restore_state`,
so no two worlds, a fork and its parent included, ever share one.  It is
the machine's one world fence.  Descriptor tables are stamped with it
(:class:`~repro.kernel.fdtable.FDTable`); a table stamped by an earlier
incarnation names inode numbers the rewound store may reuse, so it can
neither reach them (EBADF) nor release a hold in this store.
"""

from __future__ import annotations

from .cow import CowMap
from .errno import Errno, err
from .fdtable import OpenFile
from .inode import (
    _DIR,
    _FILE,
    _SYMLINK,
    DEFAULT_DIR_MODE,
    DEFAULT_FILE_MODE,
    FileType,
    Inode,
)

#: Names every directory implicitly resolves; never stored in ``entries``.
DOT_NAMES = (".", "..")

NAME_MAX = 255


def check_name(name: str) -> None:
    """Validate a single directory-entry name."""
    if not name or name in DOT_NAMES:
        raise err(Errno.EINVAL, f"bad entry name {name!r}")
    if "/" in name or "\x00" in name:
        raise err(Errno.EINVAL, f"bad entry name {name!r}")
    if len(name) > NAME_MAX:
        raise err(Errno.ENAMETOOLONG, name[:32] + "...")


class LocalFS:
    """A single in-memory filesystem instance (copy-on-write snapshotable)."""

    def __init__(self) -> None:
        self._inodes: CowMap = CowMap()
        self._next_ino = 2  # 1 is reserved for the root, allocated below
        #: Map of inode number -> parent inode number, maintained for
        #: directories only (files can be multiply linked; directories cannot).
        self._dir_parent: CowMap = CowMap()
        #: inode number -> open descriptions holding it, counted by
        #: :meth:`open_file` and :meth:`release` in this incarnation
        self._opens: dict[int, int] = {}
        #: Open-but-unlinked inodes: nlink 0, but a description in
        #: ``_opens`` still holds them (POSIX).  Always the *writable*
        #: incarnation, dropped at the last release; never part of a
        #: snapshot, because no name reaches them and no other world's
        #: description holds them.
        self._orphans: dict[int, Inode] = {}
        #: the world this store holds, renewed by every :meth:`restore_state`
        #: (identity-compared; see the module docstring)
        self.incarnation = object()
        #: bumped on every mutation a path walk can observe (see the module
        #: docstring); equal generations mean every walk answers the same
        self.generation = 0
        root = Inode(ino=1, ftype=FileType.DIR, mode=DEFAULT_DIR_MODE, uid=0, gid=0, nlink=2)
        self._inodes[1] = root
        self._dir_parent[1] = 1

    # ------------------------------------------------------------------ #
    # inode access
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> Inode:
        return self._inodes[1]

    def inode(self, ino: int) -> Inode:
        """Look up an inode by number; EIO on a dangling reference."""
        node = self._inodes.get(ino)
        if node is None:
            raise err(Errno.EIO, f"dangling inode {ino}")
        return node

    def current(self, node: Inode) -> Inode:
        """The live incarnation of ``node`` (which may be a stale pre-CoW
        copy held by an open file description)."""
        got = self._inodes.get(node.ino)
        if got is not None:
            return got
        return self._orphans.get(node.ino, node)

    def writable(self, node: Inode) -> Inode:
        """The mutable incarnation of ``node``, cloning on first touch.

        After a snapshot the stored inode is frozen in a shared layer; the
        first mutation copies exactly that one inode — the CoW shard —
        into the mutable top layer.  Before any snapshot (and on every
        later touch) this is a plain lookup with no copying.
        """
        ino = node.ino
        if self._inodes.in_top(ino):
            return self._inodes[ino]
        stored = self._inodes.get(ino)
        if stored is None:
            # open-but-unlinked: the orphan registry holds the writable copy
            return self._orphans.get(ino, node)
        clone = stored.clone()
        self._inodes[ino] = clone
        return clone

    def open_file(self, node: Inode, flags: int, path: str) -> OpenFile:
        """Mint an open description of ``node`` that holds it open."""
        ino = node.ino
        opens = self._opens
        opens[ino] = opens.get(ino, 0) + 1
        return OpenFile(node, flags, path, fs=self)

    def release(self, of: OpenFile) -> None:
        """Give back the hold of a description whose last descriptor went;
        an unlinked inode dies with its last hold.  Only a table stamped
        with this incarnation calls it (:meth:`FDTable._drop
        <repro.kernel.fdtable.FDTable._drop>`)."""
        ino = of.inode.ino
        opens = self._opens
        left = opens[ino] - 1
        if left:
            opens[ino] = left
        else:
            del opens[ino]
            self._orphans.pop(ino, None)

    def _own_data(self, node: Inode) -> None:
        """Give a writable inode private file bytes before a data mutation."""
        if not node.owns_data:
            node.data = bytearray(node.data)
            node.owns_data = True

    def _alloc(self, ftype: FileType, mode: int, uid: int, gid: int, now_ns: int) -> Inode:
        self.generation += 1
        ino = self._next_ino
        self._next_ino += 1
        node = Inode(
            ino=ino,
            ftype=ftype,
            mode=mode,
            uid=uid,
            gid=gid,
            atime_ns=now_ns,
            mtime_ns=now_ns,
            ctime_ns=now_ns,
        )
        self._inodes[ino] = node
        return node

    # ------------------------------------------------------------------ #
    # directory operations (single component, no path walking)
    # ------------------------------------------------------------------ #

    def lookup(self, directory: Inode, name: str) -> Inode:
        """Resolve ``name`` within ``directory``; ENOENT if absent."""
        if not directory.is_dir:
            raise err(Errno.ENOTDIR, f"inode {directory.ino}")
        if name == ".":
            return directory
        if name == "..":
            return self.inode(self._dir_parent[directory.ino])
        ino = directory.entries.get(name)
        if ino is None:
            raise err(Errno.ENOENT, name)
        return self.inode(ino)

    def parent_of(self, directory: Inode) -> Inode:
        """Parent of a directory (root is its own parent)."""
        if not directory.is_dir:
            raise err(Errno.ENOTDIR, f"inode {directory.ino}")
        return self.inode(self._dir_parent[directory.ino])

    def create_file(
        self,
        directory: Inode,
        name: str,
        uid: int,
        gid: int,
        mode: int = DEFAULT_FILE_MODE,
        now_ns: int = 0,
    ) -> Inode:
        """Create an empty regular file entry; EEXIST if the name is taken."""
        check_name(name)
        if not directory.is_dir:
            raise err(Errno.ENOTDIR, f"inode {directory.ino}")
        if name in directory.entries:
            raise err(Errno.EEXIST, name)
        directory = self.writable(directory)
        node = self._alloc(_FILE, mode, uid, gid, now_ns)
        directory.entries[name] = node.ino
        directory.mtime_ns = now_ns
        return node

    def mkdir(
        self,
        directory: Inode,
        name: str,
        uid: int,
        gid: int,
        mode: int = DEFAULT_DIR_MODE,
        now_ns: int = 0,
    ) -> Inode:
        """Create a subdirectory; EEXIST if the name is taken."""
        check_name(name)
        if not directory.is_dir:
            raise err(Errno.ENOTDIR, f"inode {directory.ino}")
        if name in directory.entries:
            raise err(Errno.EEXIST, name)
        directory = self.writable(directory)
        node = self._alloc(_DIR, mode, uid, gid, now_ns)
        node.nlink = 2  # "." plus the entry in the parent
        directory.entries[name] = node.ino
        directory.nlink += 1  # the child's ".."
        directory.mtime_ns = now_ns
        self._dir_parent[node.ino] = directory.ino
        return node

    def symlink(
        self,
        directory: Inode,
        name: str,
        target: str,
        uid: int,
        gid: int,
        now_ns: int = 0,
        root: str = "",
    ) -> Inode:
        """Create a symbolic link whose text is ``target``; an absolute
        target resolves below ``root`` (see :attr:`Inode.link_root`)."""
        check_name(name)
        if not directory.is_dir:
            raise err(Errno.ENOTDIR, f"inode {directory.ino}")
        if name in directory.entries:
            raise err(Errno.EEXIST, name)
        directory = self.writable(directory)
        node = self._alloc(_SYMLINK, 0o777, uid, gid, now_ns)
        node.symlink_target = target
        node.link_root = root
        directory.entries[name] = node.ino
        directory.mtime_ns = now_ns
        return node

    def link(self, directory: Inode, name: str, target: Inode, now_ns: int = 0) -> None:
        """Create a hard link ``name`` -> ``target`` (EPERM on directories)."""
        check_name(name)
        if not directory.is_dir:
            raise err(Errno.ENOTDIR, f"inode {directory.ino}")
        if target.is_dir:
            raise err(Errno.EPERM, "hard links to directories are forbidden")
        if name in directory.entries:
            raise err(Errno.EEXIST, name)
        self.generation += 1
        directory = self.writable(directory)
        target = self.writable(target)
        directory.entries[name] = target.ino
        target.nlink += 1
        target.ctime_ns = now_ns
        directory.mtime_ns = now_ns

    def unlink(self, directory: Inode, name: str, now_ns: int = 0) -> None:
        """Remove a non-directory entry, freeing the inode at nlink zero."""
        node = self.lookup(directory, name)
        if node.is_dir:
            raise err(Errno.EISDIR, name)
        self.generation += 1
        directory = self.writable(directory)
        node = self.writable(node)
        del directory.entries[name]
        directory.mtime_ns = now_ns
        node.nlink -= 1
        node.ctime_ns = now_ns
        if node.nlink == 0:
            del self._inodes[node.ino]
            if node.ino in self._opens:
                # POSIX: the file survives as long as a description holds it
                self._orphans[node.ino] = node

    def rmdir(self, directory: Inode, name: str, now_ns: int = 0) -> None:
        """Remove an empty subdirectory."""
        node = self.lookup(directory, name)
        if not node.is_dir:
            raise err(Errno.ENOTDIR, name)
        if node.entries:
            raise err(Errno.ENOTEMPTY, name)
        self.generation += 1
        directory = self.writable(directory)
        node = self.writable(node)
        del directory.entries[name]
        directory.nlink -= 1
        directory.mtime_ns = now_ns
        del self._inodes[node.ino]
        del self._dir_parent[node.ino]
        if node.ino in self._opens:
            self._orphans[node.ino] = node

    def rename(
        self,
        src_dir: Inode,
        src_name: str,
        dst_dir: Inode,
        dst_name: str,
        now_ns: int = 0,
    ) -> None:
        """Atomically move an entry, replacing a same-kind destination.

        A directory cannot move into its own subtree (EINVAL, as on
        Linux): it would detach into an unreachable cycle.
        """
        check_name(dst_name)
        node = self.lookup(src_dir, src_name)
        if node.is_dir:
            ino = dst_dir.ino
            while ino != node.ino:
                parent = self._dir_parent[ino]
                if parent == ino:  # reached the root
                    break
                ino = parent
            else:
                raise err(Errno.EINVAL, f"{src_name!r} would move into its own subtree")
        if dst_name in dst_dir.entries:
            existing = self.inode(dst_dir.entries[dst_name])
            if existing.ino == node.ino:
                # POSIX: when old and new resolve to the same existing
                # file, rename() does nothing — both links survive
                return
            if existing.is_dir != node.is_dir:
                raise err(
                    Errno.EISDIR if existing.is_dir else Errno.ENOTDIR, dst_name
                )
            if existing.is_dir:
                if existing.entries:
                    raise err(Errno.ENOTEMPTY, dst_name)
                self.rmdir(dst_dir, dst_name, now_ns)
            else:
                self.unlink(dst_dir, dst_name, now_ns)
        self.generation += 1
        src_dir = self.writable(src_dir)
        dst_dir = self.writable(dst_dir)
        node = self.writable(node)
        del src_dir.entries[src_name]
        dst_dir.entries[dst_name] = node.ino
        if node.is_dir:
            self._dir_parent[node.ino] = dst_dir.ino
            src_dir.nlink -= 1
            dst_dir.nlink += 1
        src_dir.mtime_ns = now_ns
        dst_dir.mtime_ns = now_ns
        node.ctime_ns = now_ns

    def readdir(self, directory: Inode) -> list[str]:
        """Sorted entry names of a directory (no ``.``/``..``)."""
        if not directory.is_dir:
            raise err(Errno.ENOTDIR, f"inode {directory.ino}")
        return sorted(directory.entries)

    # ------------------------------------------------------------------ #
    # inode metadata mutation (the only sanctioned write paths)
    # ------------------------------------------------------------------ #

    def set_mode(self, node: Inode, mode: int, now_ns: int = 0) -> Inode:
        """chmod: replace the permission bits."""
        self.generation += 1
        node = self.writable(node)
        node.mode = mode & 0o7777
        node.ctime_ns = now_ns
        return node

    def set_owner(self, node: Inode, uid: int, gid: int, now_ns: int = 0) -> Inode:
        """chown: replace owner and group."""
        self.generation += 1
        node = self.writable(node)
        node.uid, node.gid = uid, gid
        node.ctime_ns = now_ns
        return node

    def touch_atime(self, node: Inode, now_ns: int) -> Inode:
        """Record an access-time update (read path)."""
        node = self.writable(node)
        node.atime_ns = now_ns
        return node

    # ------------------------------------------------------------------ #
    # file data operations
    # ------------------------------------------------------------------ #

    def read_at(self, node: Inode, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes at ``offset`` from a regular file."""
        node = self.current(node)
        if node.is_dir:
            raise err(Errno.EISDIR, f"inode {node.ino}")
        if not node.is_file:
            raise err(Errno.EINVAL, "read from non-file")
        if offset < 0 or length < 0:
            raise err(Errno.EINVAL, "negative offset or length")
        return bytes(node.data[offset : offset + length])

    def write_at(self, node: Inode, offset: int, data: bytes, now_ns: int = 0) -> int:
        """Write ``data`` at ``offset``, zero-filling any gap; returns len(data)."""
        node = self.current(node)
        if not node.is_file:
            raise err(Errno.EINVAL, "write to non-file")
        if offset < 0:
            raise err(Errno.EINVAL, "negative offset")
        if not data:
            return 0  # a zero-length write never extends the file (POSIX)
        node = self.writable(node)
        self._own_data(node)
        if offset > len(node.data):
            node.data.extend(b"\x00" * (offset - len(node.data)))
        node.data[offset : offset + len(data)] = data
        node.mtime_ns = now_ns
        return len(data)

    def truncate(self, node: Inode, length: int, now_ns: int = 0) -> Inode:
        """Set a regular file's length, extending with zeros if needed."""
        node = self.current(node)
        if not node.is_file:
            raise err(Errno.EINVAL, "truncate non-file")
        if length < 0:
            raise err(Errno.EINVAL, "negative length")
        node = self.writable(node)
        self._own_data(node)
        if length < len(node.data):
            del node.data[length:]
        else:
            node.data.extend(b"\x00" * (length - len(node.data)))
        node.mtime_ns = now_ns
        return node

    # ------------------------------------------------------------------ #
    # snapshot protocol (see repro.kernel.Snapshotable)
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> object:
        """Freeze both CoW stores; O(1).  Open counts and orphans
        (open-but-unlinked inodes) are deliberately not captured: with no
        link an orphan is unreachable from the namespace, and the
        descriptions holding it belong to the world being snapshotted,
        not to its forks or rewinds."""
        return (self._inodes.freeze(), self._dir_parent.freeze(), self._next_ino)

    def restore_state(self, state: object) -> None:
        inode_layers, parent_layers, next_ino = state
        self.generation += 1
        self._inodes.restore(inode_layers)
        self._dir_parent.restore(parent_layers)
        self._next_ino = next_ino
        self._opens = {}
        self._orphans = {}
        self.incarnation = object()

    # ------------------------------------------------------------------ #
    # invariant checks (used by property tests)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        referenced: dict[int, int] = {1: 1}  # root is self-referenced
        for node in self._inodes.values():
            if node.is_dir:
                assert self._dir_parent.get(node.ino) is not None, (
                    f"dir {node.ino} missing parent pointer"
                )
                for name, child_ino in node.entries.items():
                    assert child_ino in self._inodes, (
                        f"entry {name!r} in dir {node.ino} dangles to {child_ino}"
                    )
                    referenced[child_ino] = referenced.get(child_ino, 0) + 1
        for node in self._inodes.values():
            if node.is_file:
                assert node.nlink == referenced.get(node.ino, 0), (
                    f"file inode {node.ino} nlink={node.nlink} "
                    f"but {referenced.get(node.ino, 0)} references"
                )
                assert node.nlink >= 1, f"live file inode {node.ino} with nlink 0"
            elif node.is_dir and node.ino != 1:
                assert referenced.get(node.ino, 0) == 1, (
                    f"dir inode {node.ino} referenced {referenced.get(node.ino, 0)} times"
                )
        for ino in self._orphans:
            assert ino not in self._inodes, f"orphan {ino} is still linked"
            assert ino in self._opens, f"orphan {ino} is held by no description"
