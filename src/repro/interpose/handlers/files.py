"""Descriptor lifecycle and data movement inside an identity box.

This is where the paper's Figure 4(b) lives.  Small transfers move through
ptrace word-at-a-time peeks and pokes; anything larger is staged in the
shared I/O channel and the child's syscall is rewritten into a
``pread``/``pwrite`` on the channel descriptor, coercing the application
into copying its own data.

The ``open`` rights check (r/w per flags, write-in-directory for O_CREAT)
is declared in :data:`repro.core.ops.OP_PATH_SPECS` and enforced by the
pipeline's reference monitor before :func:`h_open` runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...core.ops import OP_PATH_SPECS, OpSpec
from ...kernel.errno import Errno, err
from ...kernel.fdtable import O_RDONLY, O_WRONLY, can_read, can_write
from ..drivers import NATIVE, NativePassthrough
from ..iochannel import CHANNEL_FD
from ..table import VirtualFD

if TYPE_CHECKING:  # pragma: no cover
    from ...core.pipeline import Operation
    from ...kernel.process import Process
    from ..table import ChildState
    from . import SyscallContext


# ---------------------------------------------------------------------- #
# open & close
# ---------------------------------------------------------------------- #


def h_open(op: "Operation", ctx: "SyscallContext") -> None:
    path = op.path()
    flags = int(op.args["flags"])
    handle = path.driver.open(path.sub, flags, op.args["mode"])
    fd = ctx.state.install(
        VirtualFD(driver=path.driver, handle=handle, path=path.full, flags=flags)
    )
    ctx.finish(fd)


def h_close(op: "Operation", ctx: "SyscallContext") -> None:
    vfd = ctx.state.drop(op.args["fd"])
    if isinstance(vfd.driver, NativePassthrough):
        # the descriptor lives in the child's own table: close it there
        ctx.sup.machine.trace.rewrite(ctx.proc, "close", (vfd.handle,))
        return
    vfd.driver.close(vfd.handle)
    ctx.finish(0)


def h_dup(op: "Operation", ctx: "SyscallContext") -> None:
    state = ctx.state
    vfd = state.get(op.args["fd"])
    if isinstance(vfd.driver, NativePassthrough):
        of = ctx.proc.task.fdtable.get(vfd.handle)
        new_fd = state.install(
            VirtualFD(driver=NATIVE, handle=0, path=vfd.path, flags=vfd.flags)
        )
        of.refcount += 1
        ctx.proc.task.fdtable.install(of, fd=new_fd)
        state.get(new_fd).handle = new_fd
        ctx.finish(new_fd)
        return
    handle = vfd.driver.dup(vfd.handle)
    fd = state.install(
        VirtualFD(driver=vfd.driver, handle=handle, path=vfd.path, flags=vfd.flags)
    )
    ctx.finish(fd)


def h_pipe(op: "Operation", ctx: "SyscallContext") -> None:
    """Create a pipe whose ends live natively in the child (see
    :class:`~repro.interpose.drivers.NativePassthrough`).

    The native descriptors are installed at the *virtual* numbers, so
    child-visible fds form one namespace whichever kind they are.
    """
    from ...kernel.fdtable import OpenFile
    from ...kernel.pipes import Pipe

    state = ctx.state
    pipe = Pipe()
    r_of = OpenFile(
        inode=None, flags=O_RDONLY, path="pipe:[r]", pipe=pipe, pipe_end="r"
    )
    w_of = OpenFile(
        inode=None, flags=O_WRONLY, path="pipe:[w]", pipe=pipe, pipe_end="w"
    )
    pipe.add_end("r")
    pipe.add_end("w")
    read_v = state.install(
        VirtualFD(driver=NATIVE, handle=0, path="pipe:[r]", flags=O_RDONLY)
    )
    write_v = state.install(
        VirtualFD(driver=NATIVE, handle=0, path="pipe:[w]", flags=O_WRONLY)
    )
    ctx.proc.task.fdtable.install(r_of, fd=read_v)
    ctx.proc.task.fdtable.install(w_of, fd=write_v)
    state.get(read_v).handle = read_v
    state.get(write_v).handle = write_v
    ctx.sup.machine.clock.advance(2 * ctx.sup.machine.costs.fd_op_ns, "fd")
    ctx.finish((read_v, write_v))


# ---------------------------------------------------------------------- #
# reads
# ---------------------------------------------------------------------- #


def _deliver_read(ctx: "SyscallContext", data: bytes, addr: int) -> None:
    """Move fetched data into the child: poke small, channel big."""
    sup = ctx.sup
    if len(data) <= sup.small_io_threshold:
        if data:
            sup.machine.trace.poke_bytes(ctx.proc, addr, data)
        ctx.finish(len(data))
        return
    off = sup.channel.stage_mapped(data)
    # Rewrite the call into a pread on the channel; the child itself
    # pulls the data in, "unaware of the activity necessary to place
    # it there" (§5).  The rewritten call's own return value is the
    # byte count, so no exit-stop poke is needed.
    sup.machine.trace.rewrite(ctx.proc, "pread", (CHANNEL_FD, addr, len(data), off))


def h_read(op: "Operation", ctx: "SyscallContext") -> None:
    fd, addr, length = op.args["fd"], op.args["addr"], op.args["length"]
    vfd = ctx.state.get(fd)
    if not can_read(vfd.flags):
        raise err(Errno.EBADF, f"fd {fd} not open for reading")
    if isinstance(vfd.driver, NativePassthrough):
        # pipe end: execute natively so the kernel can block the child
        ctx.sup.machine.trace.rewrite(ctx.proc, "read", (vfd.handle, addr, length))
        return
    data = vfd.driver.read(vfd.handle, length)
    _deliver_read(ctx, data, addr)


def h_pread(op: "Operation", ctx: "SyscallContext") -> None:
    fd, addr = op.args["fd"], op.args["addr"]
    vfd = ctx.state.get(fd)
    if not can_read(vfd.flags):
        raise err(Errno.EBADF, f"fd {fd} not open for reading")
    if isinstance(vfd.driver, NativePassthrough):
        raise err(Errno.ESPIPE, "pread on a pipe")
    data = vfd.driver.pread(vfd.handle, op.args["length"], op.args["offset"])
    _deliver_read(ctx, data, addr)


# ---------------------------------------------------------------------- #
# writes
# ---------------------------------------------------------------------- #


def _complete_channel_write(proc: "Process", state: "ChildState") -> None:
    """Exit-stop half of a write staged in the I/O channel: the child's
    rewritten ``pwrite`` put its bytes there; read them back and write
    them to the file (at ``offset``, or at the descriptor's position)."""
    sup, vfd, off, offset = state.channel_write
    state.channel_write = None
    written = proc.regs.retval
    if not isinstance(written, int) or written < 0:
        return  # channel write failed; pass the error through
    data = sup.channel.read_back_mapped(off, written)
    if offset is None:
        n = vfd.driver.write(vfd.handle, data)
    else:
        n = vfd.driver.pwrite(vfd.handle, data, offset)
    sup.machine.trace.set_result(proc, n)


def h_write(op: "Operation", ctx: "SyscallContext") -> None:
    sup, proc, state = ctx.sup, ctx.proc, ctx.state
    fd, addr, length = op.args["fd"], op.args["addr"], op.args["length"]
    vfd = state.get(fd)
    if not can_write(vfd.flags):
        raise err(Errno.EBADF, f"fd {fd} not open for writing")
    if isinstance(vfd.driver, NativePassthrough):
        sup.machine.trace.rewrite(proc, "write", (vfd.handle, addr, length))
        return
    if length <= sup.small_io_threshold:
        data = sup.machine.trace.peek_bytes(proc, addr, length)
        n = vfd.driver.write(vfd.handle, data)
        ctx.finish(n)
        return
    off = sup.channel.alloc(length)
    sup.machine.trace.rewrite(proc, "pwrite", (CHANNEL_FD, addr, length, off))
    state.channel_write = (sup, vfd, off, None)
    state.exit_action = _complete_channel_write


def h_pwrite(op: "Operation", ctx: "SyscallContext") -> None:
    sup, proc, state = ctx.sup, ctx.proc, ctx.state
    fd, addr = op.args["fd"], op.args["addr"]
    length, offset = op.args["length"], op.args["offset"]
    vfd = state.get(fd)
    if not can_write(vfd.flags):
        raise err(Errno.EBADF, f"fd {fd} not open for writing")
    if isinstance(vfd.driver, NativePassthrough):
        raise err(Errno.ESPIPE, "pwrite on a pipe")
    if length <= sup.small_io_threshold:
        data = sup.machine.trace.peek_bytes(proc, addr, length)
        n = vfd.driver.pwrite(vfd.handle, data, offset)
        ctx.finish(n)
        return
    off = sup.channel.alloc(length)
    sup.machine.trace.rewrite(proc, "pwrite", (CHANNEL_FD, addr, length, off))
    state.channel_write = (sup, vfd, off, offset)
    state.exit_action = _complete_channel_write


# ---------------------------------------------------------------------- #
# descriptor metadata
# ---------------------------------------------------------------------- #


def h_lseek(op: "Operation", ctx: "SyscallContext") -> None:
    fd, offset, whence = op.args["fd"], op.args["offset"], op.args["whence"]
    vfd = ctx.state.get(fd)
    if isinstance(vfd.driver, NativePassthrough):
        ctx.sup.machine.trace.rewrite(ctx.proc, "lseek", (vfd.handle, offset, whence))
        return
    ctx.finish(vfd.driver.lseek(vfd.handle, offset, whence))


def h_fstat(op: "Operation", ctx: "SyscallContext") -> None:
    vfd = ctx.state.get(op.args["fd"])
    if isinstance(vfd.driver, NativePassthrough):
        ctx.sup.machine.trace.rewrite(ctx.proc, "fstat", (vfd.handle,))
        return
    ctx.finish(vfd.driver.fstat(vfd.handle))


def h_ftruncate(op: "Operation", ctx: "SyscallContext") -> None:
    fd, length = op.args["fd"], op.args["length"]
    vfd = ctx.state.get(fd)
    if isinstance(vfd.driver, NativePassthrough):
        ctx.sup.machine.trace.rewrite(ctx.proc, "ftruncate", (vfd.handle, length))
        return
    if not can_write(vfd.flags):
        raise err(Errno.EBADF, f"fd {fd} not open for writing")
    vfd.driver.ftruncate(vfd.handle, length)
    ctx.finish(0)


def register(registry) -> None:
    """Contribute the descriptor-lifecycle ops to ``registry``."""
    for name, handler in [
        ("open", h_open),
        ("close", h_close),
        ("dup", h_dup),
        ("pipe", h_pipe),
        ("read", h_read),
        ("pread", h_pread),
        ("write", h_write),
        ("pwrite", h_pwrite),
        ("lseek", h_lseek),
        ("fstat", h_fstat),
        ("ftruncate", h_ftruncate),
    ]:
        registry.register(OpSpec(name, handler, paths=OP_PATH_SPECS.get(name, ())))
