"""Pipes: blocking IPC in the simulated kernel (§6's wait-state claim)."""

import pytest

from repro.kernel import Errno, Machine, ProcessState
from repro.kernel.pipes import PIPE_CAPACITY, Pipe, WouldBlock


# -- the Pipe object itself ---------------------------------------------------- #


def test_fifo_order():
    pipe = Pipe()
    pipe.add_end("r")
    pipe.add_end("w")
    pipe.write(b"abc")
    pipe.write(b"def")
    assert pipe.read(4) == b"abcd"
    assert pipe.read(10) == b"ef"


def test_read_empty_with_writer_blocks():
    pipe = Pipe()
    pipe.add_end("r")
    pipe.add_end("w")
    with pytest.raises(WouldBlock) as info:
        pipe.read(1)
    assert info.value.mode == "read"


def test_read_empty_without_writers_is_eof():
    pipe = Pipe()
    pipe.add_end("r")
    assert pipe.read(8) == b""


def test_write_full_blocks():
    pipe = Pipe(capacity=4)
    pipe.add_end("r")
    pipe.add_end("w")
    assert pipe.write(b"12345678") == 4  # partial write fills it
    with pytest.raises(WouldBlock):
        pipe.write(b"x")


def test_wakeable_sets():
    pipe = Pipe(capacity=4)
    pipe.add_end("r")
    pipe.add_end("w")
    pipe.park(100, "read")
    assert pipe.take_wakeable() == []  # nothing to read yet
    pipe.write(b"x")
    pipe.park(100, "read")
    assert pipe.take_wakeable() == [100]
    assert pipe.take_wakeable() == []  # drained


def test_default_capacity():
    assert Pipe().capacity == PIPE_CAPACITY


# -- syscall layer (host agents get EAGAIN, never block) ----------------------- #


def test_host_agent_pipe_roundtrip(machine, alice, alice_task):
    rfd, wfd = machine.kcall_x(alice_task, "pipe")
    assert machine.kcall_x(alice_task, "write_bytes", wfd, b"ping") == 4
    assert machine.kcall_x(alice_task, "read_bytes", rfd, 16) == b"ping"


def test_host_agent_empty_read_is_eagain(machine, alice_task):
    rfd, _wfd = machine.kcall_x(alice_task, "pipe")
    assert machine.kcall(alice_task, "read_bytes", rfd, 1) == -Errno.EAGAIN


def test_eof_after_writer_closes(machine, alice_task):
    rfd, wfd = machine.kcall_x(alice_task, "pipe")
    machine.kcall_x(alice_task, "write_bytes", wfd, b"last")
    machine.kcall_x(alice_task, "close", wfd)
    assert machine.kcall_x(alice_task, "read_bytes", rfd, 16) == b"last"
    assert machine.kcall_x(alice_task, "read_bytes", rfd, 16) == b""


def test_epipe_after_reader_closes(machine, alice_task):
    rfd, wfd = machine.kcall_x(alice_task, "pipe")
    machine.kcall_x(alice_task, "close", rfd)
    assert machine.kcall(alice_task, "write_bytes", wfd, b"x") == -Errno.EPIPE


def test_pipe_rejects_seek_pread_truncate(machine, alice_task):
    rfd, wfd = machine.kcall_x(alice_task, "pipe")
    assert machine.kcall(alice_task, "lseek", rfd, 0, 0) == -Errno.ESPIPE
    assert machine.kcall(alice_task, "pread_bytes", rfd, 1, 0) == -Errno.ESPIPE
    assert machine.kcall(alice_task, "pwrite_bytes", wfd, b"x", 0) == -Errno.ESPIPE
    assert machine.kcall(alice_task, "ftruncate", wfd, 0) == -Errno.EINVAL


def test_fstat_reports_fifo(machine, alice_task):
    import stat as stat_mod

    rfd, wfd = machine.kcall_x(alice_task, "pipe")
    machine.kcall_x(alice_task, "write_bytes", wfd, b"abc")
    st = machine.kcall_x(alice_task, "fstat", rfd)
    assert stat_mod.S_ISFIFO(st.st_mode)
    assert st.st_size == 3


def test_dup_shares_pipe_end(machine, alice_task):
    rfd, wfd = machine.kcall_x(alice_task, "pipe")
    wfd2 = machine.kcall_x(alice_task, "dup", wfd)
    machine.kcall_x(alice_task, "close", wfd)
    # the duplicated end keeps the pipe writable: no EOF yet
    assert machine.kcall(alice_task, "read_bytes", rfd, 1) == -Errno.EAGAIN
    machine.kcall_x(alice_task, "close", wfd2)
    assert machine.kcall_x(alice_task, "read_bytes", rfd, 1) == b""


# -- process blocking: the actual §6 behaviour --------------------------------- #


def _producer_consumer(machine, alice, *, chunks, chunk_size=1000):
    """Parent consumer spawns a producer child that inherits the pipe's
    write end through the fork+exec descriptor copy."""
    received = []

    def producer(proc, args):
        wfd = int(args[0])
        yield proc.compute(us=10)
        addr = proc.alloc(chunk_size)
        for i in range(chunks):
            proc.memory.write(addr, bytes([i % 251]) * chunk_size)
            yield proc.sys.write(wfd, addr, chunk_size)
        yield proc.sys.close(wfd)
        return 0

    machine.register_program("producer", producer)
    task = machine.host_task(alice)
    machine.install_program(task, "/home/alice/prod.exe", "producer")

    child = {}

    def parent(proc, args):
        rfd, wfd = yield proc.sys.pipe()
        child["pid"] = yield proc.sys.spawn("/home/alice/prod.exe", (str(wfd),))
        yield proc.sys.close(wfd)  # parent keeps only the read end
        buf = proc.alloc(8192)
        while True:
            n = yield proc.sys.read(rfd, buf, 8192)
            if n == 0:
                break
            received.append(proc.read_buffer(buf, n))
        yield proc.sys.close(rfd)
        reaped = yield proc.sys.waitpid()
        assert reaped.pid == child["pid"]
        child["status"] = reaped.status
        return 0

    pproc = machine.spawn(parent, cred=alice, comm="consumer")
    machine.run_to_completion()
    return pproc, child, b"".join(received)


def test_blocking_producer_consumer(machine, alice):
    pproc, child, data = _producer_consumer(machine, alice, chunks=5)
    assert pproc.exit_status == 0 and child["status"] == 0
    assert len(data) == 5000
    assert data[:3] == b"\x00\x00\x00"


def test_consumer_blocks_until_producer_writes(machine, alice):
    """The consumer runs first and must park, not spin or fail."""
    pproc, _child, data = _producer_consumer(machine, alice, chunks=1)
    assert len(data) == 1000
    assert pproc.state is ProcessState.DEAD


def test_producer_blocks_when_pipe_full(machine, alice):
    """Write volume far beyond capacity forces writer-side parking."""
    chunks = (PIPE_CAPACITY // 1000) + 40
    pproc, _child, data = _producer_consumer(machine, alice, chunks=chunks)
    assert len(data) == chunks * 1000


def test_reader_blocked_forever_is_reported_as_deadlock(machine, alice):
    def reader_only(proc, args):
        rfd, wfd = yield proc.sys.pipe()
        buf = proc.alloc(16)
        yield proc.sys.read(rfd, buf, 16)  # no writer will ever write
        return 0

    machine.spawn(reader_only, cred=alice)
    with pytest.raises(RuntimeError, match="deadlock"):
        machine.run_to_completion()


def test_killing_blocked_reader_cleans_up(machine, alice):
    from repro.kernel import Signal

    def reader_only(proc, args):
        rfd, _wfd = yield proc.sys.pipe()
        buf = proc.alloc(16)
        yield proc.sys.read(rfd, buf, 16)
        return 0

    proc = machine.spawn(reader_only, cred=alice)
    machine.run()  # parks the reader
    assert proc.state is ProcessState.BLOCKED
    root = machine.host_task(machine.users.credentials_for("root"))
    machine.kcall_x(root, "kill", proc.pid, Signal.SIGKILL)
    assert not proc.alive


def test_exit_of_writer_wakes_blocked_reader(machine, alice):
    got = []

    def reader(proc, args):
        rfd, wfd = yield proc.sys.pipe()
        proc.scratch["fds"] = (rfd, wfd)
        yield proc.sys.close(wfd)
        buf = proc.alloc(16)
        n = yield proc.sys.read(rfd, buf, 16)
        got.append(n)
        return 0

    # a single process whose only write end is closed: EOF immediately
    machine.spawn(reader, cred=alice)
    machine.run_to_completion()
    assert got == [0]
