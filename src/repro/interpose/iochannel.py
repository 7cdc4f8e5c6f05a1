"""The shared I/O channel (Figure 4(b) of the paper).

2005-era ptrace moves one word per call, so bulk data through PEEK/POKE is
ruinously slow (the ``bench_ablation_iochannel`` benchmark shows just how
slow).  Parrot's answer: a small in-memory file shared between the
supervisor and all children.  The supervisor maps it; each child holds a
plain file descriptor to it.  To satisfy a big ``read``, the supervisor
copies the data *into the channel*, rewrites the child's syscall into a
``pread`` on the channel descriptor, and lets the child pull the data in
itself — one extra copy instead of thousands of ptrace round trips.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..kernel.errno import Errno, err
from ..kernel.fdtable import O_RDWR

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.machine import Machine
    from ..kernel.process import Process, Task

#: Descriptor number at which every boxed child finds the channel.
CHANNEL_FD = 999

#: Default channel capacity; offsets wrap when exhausted (single in-flight
#: transfer per stopped child, so wrapping is safe).
DEFAULT_CHANNEL_SIZE = 8 * 1024 * 1024

_counter = 0


def _next_channel_name() -> str:
    global _counter
    _counter += 1
    return f"/tmp/.parrot.channel.{_counter}"


class IOChannel:
    """One supervisor's shared buffer file."""

    def __init__(
        self,
        machine: "Machine",
        owner_task: "Task",
        size: int = DEFAULT_CHANNEL_SIZE,
    ) -> None:
        self.machine = machine
        self.owner_task = owner_task
        self.size = size
        self.path = _next_channel_name()
        machine.write_file(owner_task, self.path, b"", mode=0o600)
        self.fd = machine.kcall_x(owner_task, "open", self.path, O_RDWR)
        self._next_off = 0
        #: bytes moved through the channel, for reporting
        self.bytes_staged = 0

    # ------------------------------------------------------------------ #

    def alloc(self, n: int) -> int:
        """Reserve ``n`` bytes of channel space; returns the offset."""
        if n > self.size:
            raise err(Errno.ENOSPC, f"transfer of {n} exceeds channel size {self.size}")
        if self._next_off + n > self.size:
            self._next_off = 0
        off = self._next_off
        self._next_off += n
        return off

    def stage(self, data: bytes) -> int:
        """Copy ``data`` into the channel (supervisor-side pwrite); returns offset."""
        off = self.alloc(len(data))
        if data:
            self.machine.kcall_x(self.owner_task, "pwrite_bytes", self.fd, data, off)
        self.bytes_staged += len(data)
        return off

    def stage_mapped(self, data: bytes) -> int:
        """Place ``data`` in the channel through the supervisor's mapping.

        "The supervisor maps the channel into memory" (§5): bytes the
        supervisor just read already sit in the mapped region, so staging
        them costs no additional copy — the total for a bulk read is the
        paper's two copies (file → channel, channel → child), not three.
        """
        off = self.alloc(len(data))
        if data:
            node = self.owner_task.fdtable.get(self.fd).inode
            self.machine.fs.write_at(node, off, data, self.machine.clock.now_ns)
        self.bytes_staged += len(data)
        return off

    def read_back(self, off: int, n: int) -> bytes:
        """Read data a child deposited in the channel (supervisor-side pread)."""
        self.bytes_staged += n
        return self.machine.kcall_x(self.owner_task, "pread_bytes", self.fd, n, off)

    def read_back_mapped(self, off: int, n: int) -> bytes:
        """Read deposited data through the mapping (no extra copy charge);
        the forwarding write to the real destination is the second copy."""
        self.bytes_staged += n
        node = self.owner_task.fdtable.get(self.fd).inode
        return self.machine.fs.read_at(node, off, n)

    # ------------------------------------------------------------------ #

    def attach_child(self, proc: "Process") -> None:
        """Give a freshly boxed child its channel descriptor.

        Models fd inheritance across fork: the child's descriptor table
        gets an open RDWR description of the channel inode at a fixed,
        well-known number.
        """
        res = self.machine.vfs.resolve(self.path, self.owner_task.cred)
        node = res.require()
        proc.task.fdtable.install(
            self.machine.fs.open_file(node, O_RDWR, self.path),
            fd=CHANNEL_FD,
        )

    def close(self) -> None:
        self.machine.kcall(self.owner_task, "close", self.fd)
