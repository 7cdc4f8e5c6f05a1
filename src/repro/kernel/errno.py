"""Errno values and the kernel error type for the simulated Unix kernel.

The simulated kernel reports failures the way a real Unix kernel does: a
syscall returns ``-errno``.  Inside the Python implementation we raise
:class:`KernelError` and let the syscall dispatch layer translate it into a
negative return value, mirroring how the Linux VFS propagates ``-EACCES`` &c.
up to the syscall boundary.

Only the errno values the simulated kernel actually generates are defined;
the numeric values match Linux/x86 so traces read naturally.
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """Subset of Linux errno values used by the simulated kernel."""

    EPERM = 1  #: Operation not permitted
    ENOENT = 2  #: No such file or directory
    ESRCH = 3  #: No such process
    EINTR = 4  #: Interrupted system call
    EIO = 5  #: I/O error
    EBADF = 9  #: Bad file descriptor
    ECHILD = 10  #: No child processes
    EAGAIN = 11  #: Try again
    ENOMEM = 12  #: Out of memory
    EACCES = 13  #: Permission denied
    EFAULT = 14  #: Bad address
    EBUSY = 16  #: Device or resource busy
    EEXIST = 17  #: File exists
    EXDEV = 18  #: Cross-device link
    ENOTDIR = 20  #: Not a directory
    EISDIR = 21  #: Is a directory
    EINVAL = 22  #: Invalid argument
    ENFILE = 23  #: File table overflow
    EMFILE = 24  #: Too many open files
    ENOSPC = 28  #: No space left on device
    ESPIPE = 29  #: Illegal seek
    EROFS = 30  #: Read-only file system
    EMLINK = 31  #: Too many links
    EPIPE = 32  #: Broken pipe
    ERANGE = 34  #: Result too large
    ENAMETOOLONG = 36  #: File name too long
    ENOSYS = 38  #: Function not implemented
    ENOTEMPTY = 39  #: Directory not empty
    ELOOP = 40  #: Too many symbolic links encountered
    EBADMSG = 74  #: Not a data message (malformed frame on the wire)
    ECONNRESET = 104  #: Connection reset by peer
    ETIMEDOUT = 110  #: Connection timed out
    ECONNREFUSED = 111  #: Connection refused


#: value -> member, for turning a ``-errno`` result back into its member
#: with one dict lookup: ``Errno(value)`` runs the enum class's call
#: machinery, several times the cost on the kernel-call failure path.
_ERRNO_OF: dict[int, Errno] = {member.value: member for member in Errno}


def errno_text(errno: Errno, detail: str) -> str:
    """How an error that carries an errno reads: ``NAME: detail``, or the
    name alone when there is no detail."""
    return errno._name_ + (f": {detail}" if detail else "")


class KernelError(Exception):
    """A syscall failure carrying an :class:`Errno`.

    Raised inside kernel subsystems; caught at the syscall boundary and
    converted into a ``-errno`` return value.
    """

    def __init__(self, errno: Errno, message: str = "") -> None:
        # a member is kept as it is; anything else goes through the enum,
        # which raises ValueError for a value it does not define
        self.errno = errno if errno.__class__ is Errno else Errno(errno)
        #: the message without the errno name, for a reply that carries both
        self.detail = message
        super().__init__(errno_text(self.errno, message))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelError({self.errno.name}, {self.args[0]!r})"


def err(errno: Errno, message: str = "") -> KernelError:
    """Convenience constructor used throughout the kernel: ``raise err(Errno.EACCES)``."""
    return KernelError(errno, message)
