"""Unit tests for the copy-on-write world-snapshot machinery.

Covers the substrate (:class:`CowMap`), the per-store snapshot protocol,
and the machine-level composition: ``snapshot`` / ``fork`` / ``restore``,
quiescence enforcement, descriptor tables stamped with the world they
belong to, and open-but-unlinked file semantics across the CoW store.
"""

from __future__ import annotations

import pytest

from repro.kernel import (
    AddressSpace,
    Clock,
    CowMap,
    Errno,
    FDTable,
    KernelError,
    LocalFS,
    Machine,
    OpenFile,
    OpenFlags,
    Pipe,
    Snapshotable,
    Task,
    UserDB,
    VFS,
    WorldSnapshot,
)
from repro.kernel.cow import COMPACT_LAYERS

WC = OpenFlags.O_WRONLY | OpenFlags.O_CREAT | OpenFlags.O_TRUNC


# --------------------------------------------------------------------- #
# CowMap substrate
# --------------------------------------------------------------------- #


class TestCowMap:
    def test_set_get_delete(self):
        m = CowMap()
        m["a"] = 1
        assert m["a"] == 1
        assert "a" in m
        del m["a"]
        assert "a" not in m
        with pytest.raises(KeyError):
            m["a"]

    def test_none_is_a_legal_value(self):
        m = CowMap()
        m["k"] = None
        assert "k" in m
        assert m.get("k", "default") is None

    def test_freeze_shares_then_shadows(self):
        m = CowMap()
        m["a"] = 1
        m["b"] = 2
        layers = m.freeze()
        fork = CowMap.from_layers(layers)
        assert fork["a"] == 1 and fork["b"] == 2
        fork["a"] = 99
        assert m["a"] == 1  # parent unaffected
        assert fork["a"] == 99

    def test_tombstone_shadows_frozen_key(self):
        m = CowMap()
        m["a"] = 1
        fork = CowMap.from_layers(m.freeze())
        del fork["a"]
        assert "a" not in fork
        assert m["a"] == 1
        assert list(fork.items()) == []

    def test_restore_rewinds(self):
        m = CowMap()
        m["a"] = 1
        layers = m.freeze()
        m["a"] = 2
        m["b"] = 3
        m.restore(layers)
        assert m["a"] == 1
        assert "b" not in m

    def test_in_top_tracks_privacy(self):
        m = CowMap()
        m["a"] = 1
        assert m.in_top("a")
        m.freeze()
        assert not m.in_top("a")
        m["a"] = 2
        assert m.in_top("a")

    def test_iteration_shadows_correctly(self):
        m = CowMap()
        m["a"] = 1
        m["b"] = 2
        m.freeze()
        m["a"] = 10
        del m["b"]
        m["c"] = 3
        assert dict(m.items()) == {"a": 10, "c": 3}
        assert len(m) == 2
        assert sorted(m) == ["a", "c"]
        assert sorted(m.values()) == [3, 10]

    def test_compaction_bounds_layer_depth(self):
        m = CowMap()
        for i in range(COMPACT_LAYERS + 3):
            m[f"k{i}"] = i
            m.freeze()
        assert m.layer_count <= COMPACT_LAYERS
        assert len(m) == COMPACT_LAYERS + 3
        assert m["k0"] == 0

    def test_compaction_respects_tombstones(self):
        m = CowMap()
        m["gone"] = 1
        m.freeze()
        del m["gone"]
        for i in range(COMPACT_LAYERS + 1):
            m[f"k{i}"] = i
            m.freeze()
        assert "gone" not in m


# --------------------------------------------------------------------- #
# protocol conformance
# --------------------------------------------------------------------- #


def test_snapshotable_conformance():
    machine = Machine()
    for obj in (
        machine,
        machine.clock,
        machine.users,
        machine.vfs,
        machine.fs,
        Clock(),
        LocalFS(),
        UserDB(),
        VFS(LocalFS()),
        FDTable(),
        AddressSpace(),
        Pipe(),
    ):
        assert isinstance(obj, Snapshotable), type(obj).__name__


# --------------------------------------------------------------------- #
# per-store roundtrips
# --------------------------------------------------------------------- #


def test_fdtable_roundtrip():
    table = FDTable()
    of = OpenFile(inode=None, flags=OpenFlags.O_RDONLY, path="/f")
    fd = table.install(of)
    of.offset = 7
    state = table.snapshot_state()
    table.close(fd)
    of.offset = 99
    table.restore_state(state)
    assert table.get(fd) is of
    assert of.offset == 7
    assert of.refcount == 1


def test_fdtable_refuses_pipe_ends():
    table = FDTable()
    pipe = Pipe()
    pipe.add_end("r")
    table.install(OpenFile(inode=None, flags=OpenFlags.O_RDONLY, path="pipe:[r]", pipe=pipe, pipe_end="r"))
    with pytest.raises(KernelError) as exc:
        table.snapshot_state()
    assert exc.value.errno is Errno.EBUSY


def test_fdtable_refuses_counted_opens(machine):
    """A table rewound on its own would revive holds the store gave back."""
    task = machine.host_task(machine.users.credentials_for("root"))
    machine.kcall_x(task, "open", "/etc/passwd", OpenFlags.O_RDONLY)
    with pytest.raises(KernelError) as exc:
        task.fdtable.snapshot_state()
    assert exc.value.errno is Errno.EBUSY


def test_pipe_roundtrip_and_busy():
    pipe = Pipe(capacity=16)
    pipe.add_end("r")
    pipe.add_end("w")
    pipe.write(b"abc")
    state = pipe.snapshot_state()
    pipe.read(3)
    pipe.drop_end("w")
    pipe.restore_state(state)
    assert bytes(pipe.buffer) == b"abc"
    assert pipe.readers == 1 and pipe.writers == 1
    pipe.park(42, "read")
    with pytest.raises(KernelError) as exc:
        pipe.snapshot_state()
    assert exc.value.errno is Errno.EBUSY


def test_address_space_roundtrip():
    mem = AddressSpace()
    addr = mem.alloc_bytes(b"hello")
    state = mem.snapshot_state()
    mem.write(addr, b"HELLO")
    mem.alloc(64)
    mem.restore_state(state)
    assert mem.read(addr, 5) == b"hello"
    with pytest.raises(KernelError):
        mem.read(addr + 0x10000, 1)  # post-snapshot region is gone


# --------------------------------------------------------------------- #
# LocalFS copy-on-write semantics
# --------------------------------------------------------------------- #


def _world():
    machine = Machine()
    cred = machine.add_user("alice")
    task = machine.host_task(cred)
    return machine, task


def test_fs_mutation_after_freeze_clones_one_shard(machine):
    root = machine.host_task(machine.users.credentials_for("root"))
    machine.write_file(root, "/a", b"aaa")
    machine.write_file(root, "/b", b"bbb")
    snap = machine.snapshot()
    machine.write_file(root, "/a", b"AAA")
    fs = machine.fs
    ino_a = fs.current(machine.vfs.resolve("/a").require()).ino
    ino_b = fs.current(machine.vfs.resolve("/b").require()).ino
    assert fs._inodes.in_top(ino_a)  # the touched shard was cloned up
    assert not fs._inodes.in_top(ino_b)  # the untouched one stayed frozen
    child = machine.fork(snap)
    ctask = child.host_task(child.users.credentials_for("root"))
    assert child.read_file(ctask, "/a") == b"aaa"
    assert child.read_file(ctask, "/b") == b"bbb"
    assert machine.read_file(root, "/a") == b"AAA"


def test_open_unlinked_file_survives_snapshot():
    machine, task = _world()
    machine.write_file(task, "/home/alice/f", b"payload")
    fd = machine.kcall_x(task, "open", "/home/alice/f", OpenFlags.O_RDWR)
    machine.kcall_x(task, "unlink", "/home/alice/f")
    # POSIX: the description stays readable and writable after unlink
    assert machine.kcall_x(task, "read_bytes", fd, 7) == b"payload"
    machine.kcall_x(task, "write_bytes", fd, b"-more")
    machine.kcall_x(task, "lseek", fd, 0, 0)
    assert machine.kcall_x(task, "read_bytes", fd, 64) == b"payload-more"
    machine.kcall_x(task, "close", fd)


def test_metadata_touch_does_not_copy_file_bytes():
    machine, task = _world()
    machine.write_file(task, "/home/alice/big", b"x" * 4096)
    fs = machine.fs
    ino = fs.current(machine.vfs.resolve("/home/alice/big").require()).ino
    machine.snapshot()
    # read → atime touch clones the inode shard but must share the bytes
    fd = machine.kcall_x(task, "open", "/home/alice/big", OpenFlags.O_RDONLY)
    machine.kcall_x(task, "read_bytes", fd, 10)
    machine.kcall_x(task, "close", fd)
    node = fs._inodes[ino]
    assert fs._inodes.in_top(ino)
    assert node.owns_data is False  # bytes still shared with the snapshot


# --------------------------------------------------------------------- #
# machine-level snapshot / fork / restore
# --------------------------------------------------------------------- #


def test_snapshot_requires_quiescence(machine):
    cred = machine.add_user("alice")

    def body(proc, args):
        yield proc.sys.getpid()
        return 0

    machine.spawn(body, cred=cred, comm="live")
    with pytest.raises(KernelError) as exc:
        machine.snapshot()
    assert exc.value.errno is Errno.EBUSY
    machine.run()  # drive it to completion; a reaped process leaves the table
    snap = machine.snapshot()
    assert isinstance(snap, WorldSnapshot)


def test_fork_isolated_both_directions():
    machine, task = _world()
    machine.write_file(task, "/home/alice/f", b"base")
    child = machine.fork()
    ctask = child.host_task(child.users.credentials_for("alice"))
    child.write_file(ctask, "/home/alice/f", b"child")
    machine.write_file(task, "/home/alice/f", b"parent")
    assert machine.read_file(task, "/home/alice/f") == b"parent"
    assert child.read_file(ctask, "/home/alice/f") == b"child"
    # identity tables diverge independently too
    child.add_user("bob")
    assert child.users.exists("bob")
    assert not machine.users.exists("bob")


def test_fork_preserves_users_clock_and_programs():
    machine, task = _world()
    machine.register_program("prog", lambda proc, args: iter(()))
    t0 = machine.clock.now_ns
    child = machine.fork()
    assert child.users.exists("alice")
    assert child.clock.now_ns == t0
    assert "prog" in child.programs
    assert child.hostname == machine.hostname


def test_stale_fd_fails_ebadf_after_restore():
    machine, task = _world()
    machine.write_file(task, "/home/alice/f", b"data")
    snap = machine.snapshot()
    fd = machine.kcall_x(task, "open", "/home/alice/f", OpenFlags.O_RDONLY)
    machine.restore(snap)
    with pytest.raises(KernelError) as exc:
        machine.kcall_x(task, "read_bytes", fd, 4)
    assert exc.value.errno is Errno.EBADF
    # a task hosted on the restored world works fine
    task2 = machine.host_task(machine.users.credentials_for("alice"))
    fd2 = machine.kcall_x(task2, "open", "/home/alice/f", OpenFlags.O_RDONLY)
    assert machine.kcall_x(task2, "read_bytes", fd2, 4) == b"data"


def test_parent_fd_fails_ebadf_on_fork():
    machine, task = _world()
    machine.write_file(task, "/home/alice/f", b"data")
    fd = machine.kcall_x(task, "open", "/home/alice/f", OpenFlags.O_RDONLY)
    machine.kcall_x(task, "close", fd)
    child = machine.fork()
    fd2 = machine.kcall_x(task, "open", "/home/alice/f", OpenFlags.O_RDONLY)
    with pytest.raises(KernelError) as exc:
        child.kcall_x(task, "read_bytes", fd2, 4)  # parent-world table
    assert exc.value.errno is Errno.EBADF
    # the parent still honours its own tables
    assert machine.kcall_x(task, "read_bytes", fd2, 4) == b"data"


def test_epoch_increments_on_restore():
    """Every restore and every fork is a new world: its incarnation is
    distinct from every earlier one, and a fork leaves its parent's be."""
    machine, _task = _world()
    snap = machine.snapshot()
    seen = [machine.fs.incarnation]
    for _ in range(2):
        machine.restore(snap)
        seen.append(machine.fs.incarnation)
    current = machine.fs.incarnation
    forks = [machine.fork(snap), machine.fork(snap), machine.fork()]
    seen += [fork.fs.incarnation for fork in forks]
    assert machine.fs.incarnation is current
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("built_by", ["host_task", "hand"])
def test_a_stale_table_cannot_be_spawned_on(built_by):
    """A descriptor table belongs to one process in one world.

    Alice's table outlives a restore; root then writes a 0600 file that
    reuses the inode number her descriptor names.  Her host calls on the
    old table are EBADF, and so is spawning a process on a copy of it,
    before any pid is taken or any time charged: the process would
    otherwise read root's file through her descriptor.  A table built by
    hand, unstamped, takes its stamp from its first counted open.
    """
    machine, _task = _world()
    alice = machine.users.credentials_for("alice")
    snap = machine.snapshot()
    old = machine.host_task(alice) if built_by == "host_task" else Task(cred=alice)
    fd = machine.kcall_x(old, "open", "/tmp/mine", OpenFlags.O_RDWR | OpenFlags.O_CREAT, 0o644)
    mine = machine.vfs.resolve("/tmp/mine").require().ino
    machine.restore(snap)
    root = machine.host_task(machine.users.credentials_for("root"))
    machine.write_file(root, "/root/secret", b"root only", mode=0o600)
    assert machine.vfs.resolve("/root/secret").require().ino == mine
    assert machine.kcall(old, "pread_bytes", fd, 64, 0) == -Errno.EBADF

    seen = {}

    def reader(proc, args):
        seen["read"] = yield proc.sys.pread_bytes(fd, 64, 0)
        return 0

    before = machine.clock.now_ns
    with pytest.raises(KernelError) as exc:
        machine.spawn(reader, cred=alice, fdtable=old.fdtable.fork_copy())
    assert exc.value.errno is Errno.EBADF
    machine.run()
    assert seen == {}
    assert machine.clock.now_ns == before
    assert machine.processes() == []
    # the next process takes the pid the refused one would have taken
    assert machine.spawn(reader, cred=alice).pid == snap.next_pid


def test_restore_then_rerun_processes():
    """A restored world can spawn and run fresh processes normally."""
    machine, task = _world()
    snap = machine.snapshot()
    outcomes = []

    def body(proc, args):
        fd = yield proc.sys.open("/home/alice/out", int(WC), 0o644)
        addr = proc.alloc_bytes(b"ran")
        yield proc.sys.write(fd, addr, 3)
        yield proc.sys.close(fd)
        outcomes.append(True)
        return 0

    for _round in range(2):
        machine.restore(snap)
        task2 = machine.host_task(machine.users.credentials_for("alice"))
        machine.spawn(body, cred=machine.users.credentials_for("alice"), comm="w")
        machine.run()
        assert machine.read_file(task2, "/home/alice/out") == b"ran"
    assert outcomes == [True, True]


def test_fork_telemetry_detached():
    from repro.core.telemetry import Telemetry

    machine = Machine(telemetry=Telemetry())
    machine.telemetry.clock = machine.clock
    span = machine.telemetry.start_span("parent-op")
    child = machine.fork()
    assert child.telemetry is not machine.telemetry
    child_span = child.telemetry.start_span("child-op")
    # fresh root trace: no lineage back into the parent's open span
    assert child_span.trace_id != span.trace_id
    assert child_span.parent_id == ""
    child.telemetry.end_span(child_span)
    machine.telemetry.end_span(span)
    assert machine.telemetry.spans_named("child-op") == []
