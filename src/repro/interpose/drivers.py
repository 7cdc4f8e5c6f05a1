"""Filesystem drivers behind the supervisor's namespace.

Parrot attaches "filesystem-like services to existing applications" —
ordinary paths are delegated to the host kernel, while prefixes like
``/chirp/server/path`` or ``/gsiftp/...`` route to remote-protocol drivers
(§3).  A :class:`Driver` turns the supervisor's file operations into
whatever its backing store speaks; handlers in the supervisor stay
driver-agnostic.

The local driver performs its work with the *supervising user's* kernel
task, which is the heart of the delegation architecture: the child never
touches the real filesystem itself.  Access control for local paths is the
supervisor's ACL policy; remote drivers enforce ACLs server-side instead
(``requires_local_acl = False``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..kernel.errno import Errno, err
from ..kernel.inode import StatResult

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.machine import Machine
    from ..kernel.process import Task


#: Every operation a driver may implement (``fetch_executable`` reads a
#: program file so the supervisor can spawn it locally).  A driver that
#: lacks one answers ENOSYS for it.
DRIVER_OPS = (
    "open", "close", "read", "write", "pread", "pwrite", "lseek", "dup",
    "ftruncate", "fstat", "stat", "lstat", "readlink", "readdir", "mkdir",
    "rmdir", "unlink", "rename", "symlink", "link", "truncate", "getacl",
    "setacl", "fetch_executable",
)


class Driver:
    """Interface every namespace driver implements: the ops in
    :data:`DRIVER_OPS`.

    Handles returned by ``open`` are driver-private; the supervisor
    stores them in its virtual descriptor table and passes them back.
    All ops raise :class:`~repro.kernel.errno.KernelError` on failure.
    """

    #: Whether the supervisor must run its own ACL policy for this driver's
    #: paths (local files: yes; remote services with server-side ACLs: no).
    requires_local_acl = True

    name = "abstract"


def _unsupported(op: str) -> Callable[..., Any]:
    """The fallback for a declared op that a driver does not define."""

    def unsupported(self: Driver, *args: Any) -> Any:
        raise err(Errno.ENOSYS, f"{self.name}: {op}")

    unsupported.__name__, unsupported.__qualname__ = op, f"Driver.{op}"
    return unsupported


# Real methods on the base class, not a ``__getattr__`` hook: a class with
# one loses CPython's specialized attribute loads on every instance, and
# the local driver's ops are on the per-syscall path.
for _op in DRIVER_OPS:
    setattr(Driver, _op, _unsupported(_op))


class NativePassthrough(Driver):
    """Marker driver for descriptors that live in the *child's* own kernel
    table (pipe ends).  The supervisor rewrites operations on them into
    native calls instead of delegating, because pipe reads/writes must be
    able to block — something a host-level supervisor cannot do on the
    child's behalf (§6's wait-state rule is the kernel's job).

    The handle is the child's native descriptor number, kept equal to the
    virtual descriptor number for sanity.
    """

    requires_local_acl = False
    name = "native"


#: Shared instance; the class is stateless.
NATIVE = NativePassthrough()


class LocalDriver(Driver):
    """Delegate to the host kernel as the supervising user."""

    requires_local_acl = True
    name = "local"

    def __init__(self, machine: "Machine", owner_task: "Task") -> None:
        self.machine = machine
        self.task = owner_task

    def open(self, path: str, flags: int, mode: int) -> int:
        return self.machine.kcall_x(self.task, "open", path, flags, mode)

    def close(self, handle: int) -> None:
        self.machine.kcall_x(self.task, "close", handle)

    def read(self, handle: int, length: int) -> bytes:
        return self.machine.kcall_x(self.task, "read_bytes", handle, length)

    def write(self, handle: int, data: bytes) -> int:
        return self.machine.kcall_x(self.task, "write_bytes", handle, data)

    def pread(self, handle: int, length: int, offset: int) -> bytes:
        return self.machine.kcall_x(self.task, "pread_bytes", handle, length, offset)

    def pwrite(self, handle: int, data: bytes, offset: int) -> int:
        return self.machine.kcall_x(self.task, "pwrite_bytes", handle, data, offset)

    def lseek(self, handle: int, offset: int, whence: int) -> int:
        return self.machine.kcall_x(self.task, "lseek", handle, offset, whence)

    def dup(self, handle: int) -> int:
        return self.machine.kcall_x(self.task, "dup", handle)

    def ftruncate(self, handle: int, length: int) -> None:
        self.machine.kcall_x(self.task, "ftruncate", handle, length)

    def fstat(self, handle: int) -> StatResult:
        return self.machine.kcall_x(self.task, "fstat", handle)

    def stat(self, path: str) -> StatResult:
        return self.machine.kcall_x(self.task, "stat", path)

    def lstat(self, path: str) -> StatResult:
        return self.machine.kcall_x(self.task, "lstat", path)

    def readlink(self, path: str) -> str:
        return self.machine.kcall_x(self.task, "readlink", path)

    def readdir(self, path: str) -> list[str]:
        return self.machine.kcall_x(self.task, "readdir", path)

    def mkdir(self, path: str, mode: int) -> None:
        self.machine.kcall_x(self.task, "mkdir", path, mode)

    def rmdir(self, path: str) -> None:
        self.machine.kcall_x(self.task, "rmdir", path)

    def unlink(self, path: str) -> None:
        self.machine.kcall_x(self.task, "unlink", path)

    def rename(self, oldpath: str, newpath: str) -> None:
        self.machine.kcall_x(self.task, "rename", oldpath, newpath)

    def symlink(self, target: str, linkpath: str) -> None:
        self.machine.kcall_x(self.task, "symlink", target, linkpath)

    def link(self, oldpath: str, newpath: str) -> None:
        self.machine.kcall_x(self.task, "link", oldpath, newpath)

    def truncate(self, path: str, length: int) -> None:
        self.machine.kcall_x(self.task, "truncate", path, length)

    def fetch_executable(self, path: str) -> bytes:
        return self.machine.read_file(self.task, path)


class Namespace:
    """Longest-prefix mount table routing paths to drivers."""

    def __init__(self, root_driver: Driver) -> None:
        self._root = root_driver
        self._mounts: list[tuple[str, Driver]] = []

    def mount(self, prefix: str, driver: Driver) -> None:
        """Attach ``driver`` under ``prefix`` (e.g. ``/chirp``)."""
        prefix = prefix.rstrip("/")
        if not prefix.startswith("/"):
            raise err(Errno.EINVAL, f"mount prefix must be absolute: {prefix!r}")
        self._mounts.append((prefix, driver))
        # longest prefix first
        self._mounts.sort(key=lambda m: len(m[0]), reverse=True)

    def route(self, path: str) -> tuple[Driver, str]:
        """Pick the driver for an absolute path; returns (driver, subpath).

        For mounted prefixes the subpath is relative to the mount (with a
        leading ``/``); the root driver sees the full path.
        """
        for prefix, driver in self._mounts:
            if path == prefix or path.startswith(prefix + "/"):
                sub = path[len(prefix) :] or "/"
                return driver, sub
        return self._root, path

    def mounts(self) -> list[tuple[str, Driver]]:
        return list(self._mounts)
