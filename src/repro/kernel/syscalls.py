"""Native syscall implementations of the simulated kernel.

Each syscall is a method on :class:`SyscallExecutor`, operating on a
:class:`~repro.kernel.process.Task` (credentials + fd table + cwd + optional
address space).  The executor charges the cost model for the work each call
performs — path components walked, inodes touched, bytes copied — so that
simulated timings react to workload structure the way real ones do.

The *trap* cost (entering/leaving the kernel) is charged by the dispatch
layer in :mod:`repro.kernel.machine`, not here, because host-level agents
(the interposition supervisor, the Chirp server) also pay it per call.

Return conventions follow Unix: non-negative results on success, ``-errno``
on failure (the dispatcher converts :class:`KernelError`).  Calls with
structured results (``stat``, ``readdir``, ``getcwd``) return objects, which
a real ABI would write through a pointer; their failure path is still a
negative int.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import stat as stat_mod

from .errno import Errno, err
from .fdtable import (
    O_APPEND,
    O_CREAT,
    O_DIRECTORY,
    O_EXCL,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    OpenFile,
    can_read,
    can_write,
)
from .inode import Inode, StatResult, access_allowed, stat_of
from .pipes import Pipe
from .process import Task
from .vfs import Resolution, join, normalize

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: os.access / access(2) mode bits
R_OK, W_OK, X_OK, F_OK = 4, 2, 1, 0

#: whence values for lseek
SEEK_SET, SEEK_CUR, SEEK_END = 0, 1, 2


def _pipe_stat(task: Task, pipe: Pipe) -> StatResult:
    """What ``fstat`` reports for a pipe end: a FIFO the caller owns."""
    return StatResult(
        st_ino=0,
        st_mode=stat_mod.S_IFIFO | 0o600,
        st_nlink=1,
        st_uid=task.cred.uid,
        st_gid=task.cred.gid,
        st_size=len(pipe.buffer),
        st_atime_ns=0,
        st_mtime_ns=0,
        st_ctime_ns=0,
    )


class SyscallExecutor:
    """Implements the syscall table against one :class:`Machine`."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    def _charge(self, ns: int, category: str) -> None:
        self.machine.clock.advance(ns, category)

    def _resolve(
        self,
        task: Task,
        path: str,
        *,
        follow: bool = True,
    ) -> Resolution:
        machine = self.machine
        res = machine.vfs.resolve(path, task.cred, cwd=task.cwd, follow=follow)
        walked = res.stats
        machine.clock.advance(
            machine.costs.path_component_ns * (walked.components + walked.symlinks), "vfs"
        )
        return res

    def _check_perm(self, task: Task, inode: Inode, want: int) -> None:
        self._charge(self.machine.costs.inode_op_ns, "vfs")
        if not access_allowed(inode, task.cred.uid, task.cred.gid, want):
            raise err(Errno.EACCES, f"uid {task.cred.uid} wants {want:o} on inode {inode.ino}")

    def _mem(self, task: Task):
        if task.memory is None:
            raise err(Errno.EFAULT, "task has no address space")
        return task.memory

    def _fd(self, task: Task, fd: int) -> OpenFile:
        """Resolve a descriptor of a table of this world.

        A table stamped by another world (the parent of a fork, or the
        state before a restore) names inodes that no longer exist in this
        one; every descriptor in it is EBADF here, exactly as a stale
        handle should be.
        """
        self.machine.check_table(task.fdtable)
        return task.fdtable.get(fd)

    # ------------------------------------------------------------------ #
    # identity & process info
    # ------------------------------------------------------------------ #

    def do_getpid(self, task: Task) -> int:
        proc = self.machine.process_of(task)
        return proc.pid if proc else 0

    def do_getppid(self, task: Task) -> int:
        proc = self.machine.process_of(task)
        return proc.ppid if proc else 0

    def do_getuid(self, task: Task) -> int:
        return task.cred.uid

    def do_get_user_name(self, task: Task) -> str:
        """The paper's new syscall.

        Natively (outside any identity box) it reports the Unix account
        name; inside a box the supervisor intercepts it and returns the
        high-level identity string instead (§3).
        """
        return task.cred.username

    # ------------------------------------------------------------------ #
    # file open/close and descriptor I/O
    # ------------------------------------------------------------------ #

    def do_open(self, task: Task, path: str, flags: int = 0, mode: int = 0o644) -> int:
        # a table of another world takes no description of this one
        self.machine.check_table(task.fdtable)
        bits = int(flags)
        readable, writable = can_read(bits), can_write(bits)
        res = self._resolve(task, path)
        costs = self.machine.costs
        now = self.machine.clock.now_ns
        if res.exists:
            node = res.require()
            if bits & O_CREAT and bits & O_EXCL:
                raise err(Errno.EEXIST, path)
            if node.is_dir and writable:
                raise err(Errno.EISDIR, path)
            if bits & O_DIRECTORY and not node.is_dir:
                raise err(Errno.ENOTDIR, path)
            want = (4 if readable else 0) | (2 if writable else 0)
            if want:
                self._check_perm(task, node, want)
            if bits & O_TRUNC and node.is_file and writable:
                node = self.machine.fs.truncate(node, 0, now)
        else:
            if not bits & O_CREAT:
                raise err(Errno.ENOENT, path)
            self._check_perm(task, res.parent, 2)
            node = self.machine.fs.create_file(
                res.parent,
                res.name,
                task.cred.uid,
                task.cred.gid,
                mode & ~task.umask,
                now,
            )
        self._charge(costs.fd_op_ns, "fd")
        of = self.machine.fs.open_file(
            node, bits, join(res.dir_path, res.name) if res.name else "/"
        )
        if bits & O_APPEND:
            of.seek_end()
        return task.fdtable.install(of)

    def do_close(self, task: Task, fd: int) -> int:
        self._charge(self.machine.costs.fd_op_ns, "fd")
        of = self._fd(task, fd)
        task.fdtable.close(fd)
        if of.pipe is not None:
            # dropping an end may unblock the peer (EOF / EPIPE delivery)
            self.machine.wake_pipe(of.pipe)
        return 0

    def do_pipe(self, task: Task) -> tuple[int, int]:
        """Create a pipe; returns ``(read_fd, write_fd)``."""
        pipe = Pipe()
        read_of = OpenFile(
            inode=None, flags=O_RDONLY, path="pipe:[r]", pipe=pipe, pipe_end="r"
        )
        write_of = OpenFile(
            inode=None, flags=O_WRONLY, path="pipe:[w]", pipe=pipe, pipe_end="w"
        )
        pipe.add_end("r")
        pipe.add_end("w")
        self._charge(2 * self.machine.costs.fd_op_ns, "fd")
        return task.fdtable.install(read_of), task.fdtable.install(write_of)

    def do_dup(self, task: Task, fd: int) -> int:
        self._charge(self.machine.costs.fd_op_ns, "fd")
        self.machine.check_table(task.fdtable)
        return task.fdtable.dup(fd)

    def _read_common(self, task: Task, fd: int, length: int, offset: int | None) -> bytes:
        of = self._fd(task, fd)
        if not can_read(of.flags):
            raise err(Errno.EBADF, f"fd {fd} not open for reading")
        costs = self.machine.costs
        if of.pipe is not None:
            if offset is not None:
                raise err(Errno.ESPIPE, "pread on a pipe")
            data = of.pipe.read(length)  # may raise WouldBlock
            self._charge(costs.io_base_ns + costs.copy_cost(len(data)), "io")
            self.machine.wake_pipe(of.pipe)  # freed space wakes writers
            return data
        pos = of.offset if offset is None else offset
        data = self.machine.fs.read_at(of.inode, pos, length)
        if offset is None:
            of.offset = pos + len(data)
        of.inode = self.machine.fs.touch_atime(of.inode, self.machine.clock.now_ns)
        self._charge(costs.io_base_ns + costs.copy_cost(len(data)), "io")
        return data

    def _write_common(self, task: Task, fd: int, data: bytes, offset: int | None) -> int:
        of = self._fd(task, fd)
        if not can_write(of.flags):
            raise err(Errno.EBADF, f"fd {fd} not open for writing")
        costs = self.machine.costs
        now = self.machine.clock.now_ns
        if of.pipe is not None:
            if offset is not None:
                raise err(Errno.ESPIPE, "pwrite on a pipe")
            if of.pipe.readers == 0:
                raise err(Errno.EPIPE, "all read ends closed")
            n = of.pipe.write(data)  # may raise WouldBlock when full
            self._charge(costs.io_base_ns + costs.copy_cost(n), "io")
            self.machine.wake_pipe(of.pipe)  # new data wakes readers
            return n
        if of.flags & O_APPEND and offset is None:
            of.offset = self.machine.fs.current(of.inode).size
        pos = of.offset if offset is None else offset
        n = self.machine.fs.write_at(of.inode, pos, data, now)
        if offset is None:
            of.offset = pos + n
        self._charge(costs.io_base_ns + costs.copy_cost(n), "io")
        return n

    def do_read(self, task: Task, fd: int, addr: int, length: int) -> int:
        data = self._read_common(task, fd, length, None)
        self._mem(task).write(addr, data)
        return len(data)

    def do_pread(self, task: Task, fd: int, addr: int, length: int, offset: int) -> int:
        data = self._read_common(task, fd, length, offset)
        self._mem(task).write(addr, data)
        return len(data)

    def do_write(self, task: Task, fd: int, addr: int, length: int) -> int:
        data = self._mem(task).read(addr, length)
        return self._write_common(task, fd, data, None)

    def do_pwrite(self, task: Task, fd: int, addr: int, length: int, offset: int) -> int:
        data = self._mem(task).read(addr, length)
        return self._write_common(task, fd, data, offset)

    # Byte-oriented variants for host agents without an address space.

    def do_read_bytes(self, task: Task, fd: int, length: int) -> bytes:
        return self._read_common(task, fd, length, None)

    def do_pread_bytes(self, task: Task, fd: int, length: int, offset: int) -> bytes:
        return self._read_common(task, fd, length, offset)

    def do_write_bytes(self, task: Task, fd: int, data: bytes) -> int:
        return self._write_common(task, fd, data, None)

    def do_pwrite_bytes(self, task: Task, fd: int, data: bytes, offset: int) -> int:
        return self._write_common(task, fd, data, offset)

    def do_lseek(self, task: Task, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        of = self._fd(task, fd)
        if of.pipe is not None:
            raise err(Errno.ESPIPE, "pipes are not seekable")
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = of.offset + offset
        elif whence == SEEK_END:
            new = self.machine.fs.current(of.inode).size + offset
        else:
            raise err(Errno.EINVAL, f"whence {whence}")
        if new < 0:
            raise err(Errno.EINVAL, "negative file offset")
        of.offset = new
        return new

    def do_fstat(self, task: Task, fd: int) -> StatResult:
        self._charge(self.machine.costs.inode_op_ns, "vfs")
        of = self._fd(task, fd)
        if of.pipe is not None:
            return _pipe_stat(task, of.pipe)
        return stat_of(self.machine.fs.current(of.inode))

    def do_ftruncate(self, task: Task, fd: int, length: int) -> int:
        of = self._fd(task, fd)
        if of.pipe is not None:
            raise err(Errno.EINVAL, "cannot truncate a pipe")
        if not can_write(of.flags):
            raise err(Errno.EBADF, f"fd {fd} not open for writing")
        of.inode = self.machine.fs.truncate(of.inode, length, self.machine.clock.now_ns)
        self._charge(self.machine.costs.inode_op_ns, "io")
        return 0

    # ------------------------------------------------------------------ #
    # path-based metadata
    # ------------------------------------------------------------------ #

    def do_stat(self, task: Task, path: str) -> StatResult:
        return self._stat(task, path, True)

    def do_lstat(self, task: Task, path: str) -> StatResult:
        return self._stat(task, path, False)

    def _stat(self, task: Task, path: str, follow: bool) -> StatResult:
        """The walk and the inode op, charged as one ``vfs`` update."""
        machine = self.machine
        res = machine.vfs.resolve(path, task.cred, cwd=task.cwd, follow=follow)
        walked = res.stats
        costs = machine.costs
        machine.clock.advance(
            costs.path_component_ns * (walked.components + walked.symlinks)
            + costs.inode_op_ns,
            "vfs",
        )
        return stat_of(res.require())

    def do_access(self, task: Task, path: str, mode: int) -> int:
        res = self._resolve(task, path)
        node = res.require()
        if mode != F_OK:
            self._check_perm(task, node, mode)
        return 0

    def do_readlink(self, task: Task, path: str) -> str:
        res = self._resolve(task, path, follow=False)
        node = res.require()
        if not node.is_symlink:
            raise err(Errno.EINVAL, path)
        return node.symlink_target

    def do_chmod(self, task: Task, path: str, mode: int) -> int:
        res = self._resolve(task, path)
        node = res.require()
        if task.cred.uid not in (0, node.uid):
            raise err(Errno.EPERM, path)
        self.machine.fs.set_mode(node, mode, self.machine.clock.now_ns)
        self._charge(self.machine.costs.inode_op_ns, "vfs")
        return 0

    def do_chown(self, task: Task, path: str, uid: int, gid: int) -> int:
        if not task.cred.is_root:
            raise err(Errno.EPERM, "chown requires root")
        res = self._resolve(task, path)
        node = res.require()
        self.machine.fs.set_owner(node, uid, gid, self.machine.clock.now_ns)
        self._charge(self.machine.costs.inode_op_ns, "vfs")
        return 0

    def do_truncate(self, task: Task, path: str, length: int) -> int:
        res = self._resolve(task, path)
        node = res.require()
        self._check_perm(task, node, 2)
        self.machine.fs.truncate(node, length, self.machine.clock.now_ns)
        return 0

    # ------------------------------------------------------------------ #
    # namespace mutation
    # ------------------------------------------------------------------ #

    def do_mkdir(self, task: Task, path: str, mode: int = 0o755) -> int:
        res = self._resolve(task, path)
        if res.exists:
            raise err(Errno.EEXIST, path)
        self._check_perm(task, res.parent, 2)
        self.machine.fs.mkdir(
            res.parent,
            res.name,
            task.cred.uid,
            task.cred.gid,
            mode & ~task.umask,
            self.machine.clock.now_ns,
        )
        return 0

    def do_rmdir(self, task: Task, path: str) -> int:
        res = self._resolve(task, path, follow=False)
        res.require()
        self._check_perm(task, res.parent, 2)
        self.machine.fs.rmdir(res.parent, res.name, self.machine.clock.now_ns)
        return 0

    def do_unlink(self, task: Task, path: str) -> int:
        res = self._resolve(task, path, follow=False)
        res.require()
        self._check_perm(task, res.parent, 2)
        self.machine.fs.unlink(res.parent, res.name, self.machine.clock.now_ns)
        return 0

    def do_rename(self, task: Task, oldpath: str, newpath: str) -> int:
        src = self._resolve(task, oldpath, follow=False)
        src.require()
        dst = self._resolve(task, newpath, follow=False)
        self._check_perm(task, src.parent, 2)
        self._check_perm(task, dst.parent, 2)
        self.machine.fs.rename(
            src.parent, src.name, dst.parent, dst.name, self.machine.clock.now_ns
        )
        return 0

    def do_symlink(self, task: Task, target: str, linkpath: str, root: str = "") -> int:
        res = self._resolve(task, linkpath, follow=False)
        if res.exists:
            raise err(Errno.EEXIST, linkpath)
        self._check_perm(task, res.parent, 2)
        self.machine.fs.symlink(
            res.parent, res.name, target, task.cred.uid, task.cred.gid,
            self.machine.clock.now_ns, root,
        )
        return 0

    def do_link(self, task: Task, oldpath: str, newpath: str) -> int:
        src = self._resolve(task, oldpath, follow=False)
        node = src.require()
        dst = self._resolve(task, newpath, follow=False)
        if dst.exists:
            raise err(Errno.EEXIST, newpath)
        self._check_perm(task, dst.parent, 2)
        self.machine.fs.link(dst.parent, dst.name, node, self.machine.clock.now_ns)
        return 0

    def do_readdir(self, task: Task, path: str) -> list[str]:
        res = self._resolve(task, path)
        node = res.require()
        self._check_perm(task, node, 4)
        names = self.machine.fs.readdir(node)
        self._charge(
            self.machine.costs.inode_op_ns + self.machine.costs.copy_cost(sum(map(len, names))),
            "vfs",
        )
        return names

    def do_chdir(self, task: Task, path: str) -> int:
        res = self._resolve(task, path)
        node = res.require()
        if not node.is_dir:
            raise err(Errno.ENOTDIR, path)
        self._check_perm(task, node, 1)
        task.cwd = normalize(join(res.dir_path, res.name)) if res.name else "/"
        return 0

    def do_getcwd(self, task: Task) -> str:
        return task.cwd

    # ------------------------------------------------------------------ #
    # processes & signals (delegated to the machine's process table)
    # ------------------------------------------------------------------ #

    def do_spawn(self, task: Task, path: str, args: tuple = ()) -> int:
        return self.machine.spawn_from_file(task, path, list(args))

    def do_thread(self, task: Task, factory, args: tuple = ()) -> int:
        """Create a thread of the calling process (shared Task)."""
        parent = self.machine.process_of(task)
        if parent is None:
            raise err(Errno.EINVAL, "host agents cannot spawn threads")
        if not callable(factory):
            raise err(Errno.EINVAL, "thread start routine must be callable")
        proc = self.machine.spawn_thread(
            parent, factory, list(args), comm=f"{parent.comm}:thr"
        )
        return proc.pid

    def do_kill(self, task: Task, pid: int, sig: int) -> int:
        return self.machine.deliver_signal(task, pid, sig)

    # exit / waitpid never reach the executor: the machine's scheduler
    # handles them before dispatch because they change scheduling state.

    # ------------------------------------------------------------------ #
    # deliberately unimplemented calls (§6: "a few system calls have not
    # been implemented", e.g. mount and ptrace-inside-parrot)
    # ------------------------------------------------------------------ #

    def do_mount(self, task: Task, *args) -> int:
        raise err(Errno.ENOSYS, "mount is administrator-only and unimplemented")

    def do_ptrace(self, task: Task, *args) -> int:
        raise err(Errno.ENOSYS, "nested ptrace is unimplemented")

