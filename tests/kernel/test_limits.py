"""Resource limits and boundary conditions across the kernel."""

import gc
import weakref

import pytest

from repro.kernel import Errno, KernelError, Machine, OpenFlags
from repro.kernel.fdtable import FD_LIMIT, FDTable, OpenFile
from repro.kernel.inode import FileType, Inode
from repro.kernel.localfs import NAME_MAX
from repro.kernel.vfs import PATH_MAX


def make_of():
    inode = Inode(ino=1, ftype=FileType.FILE, mode=0o644, uid=0, gid=0)
    return OpenFile(inode=inode, flags=OpenFlags.O_RDONLY, path="/f")


def test_fd_limit_enforced():
    table = FDTable()
    table._next_fd = FD_LIMIT - 2
    table.install(make_of())
    table.install(make_of())
    with pytest.raises(KernelError) as info:
        table.install(make_of())
    assert info.value.errno is Errno.EMFILE


def test_name_max_enforced(machine, alice_task):
    ok = "x" * NAME_MAX
    too_long = "x" * (NAME_MAX + 1)
    assert machine.kcall(alice_task, "mkdir", ok, 0o755) == 0
    assert machine.kcall(alice_task, "mkdir", too_long, 0o755) == -Errno.ENAMETOOLONG


def test_path_max_enforced(machine, alice_task):
    monster = "/" + "/".join(["d"] * (PATH_MAX // 2 + 10))
    assert machine.kcall(alice_task, "stat", monster) == -Errno.ENAMETOOLONG


def test_rename_onto_own_hard_link_is_noop(machine, alice_task):
    machine.write_file(alice_task, "a", b"data")
    machine.kcall_x(alice_task, "link", "a", "b")
    assert machine.kcall(alice_task, "rename", "a", "b") == 0
    # POSIX: the source entry goes away, the target stays, content intact
    assert machine.read_file(alice_task, "b") == b"data"


def test_zero_length_io(machine, alice_task):
    machine.write_file(alice_task, "f", b"abc")
    fd = machine.kcall_x(alice_task, "open", "f", OpenFlags.O_RDWR)
    assert machine.kcall_x(alice_task, "read_bytes", fd, 0) == b""
    assert machine.kcall_x(alice_task, "write_bytes", fd, b"") == 0
    assert machine.read_file(alice_task, "f") == b"abc"


def test_deeply_nested_directories(machine, alice_task):
    # build 64 levels and stat the leaf
    current = "/home/alice"
    for i in range(64):
        current += f"/n{i}"
        machine.kcall_x(alice_task, "mkdir", current, 0o755)
    st = machine.kcall_x(alice_task, "stat", current)
    assert st.is_dir


def test_readdir_of_giant_directory(machine, alice_task):
    machine.kcall_x(alice_task, "mkdir", "big", 0o755)
    for i in range(300):
        machine.write_file(alice_task, f"big/f{i:03d}", b"")
    names = machine.kcall_x(alice_task, "readdir", "big")
    assert len(names) == 300
    assert names == sorted(names)


def test_unlink_open_file_keeps_description_usable(machine, alice_task):
    """Classic Unix: an unlinked-but-open file stays readable via its fd."""
    machine.write_file(alice_task, "ghost", b"still here")
    fd = machine.kcall_x(alice_task, "open", "ghost", OpenFlags.O_RDONLY)
    machine.kcall_x(alice_task, "unlink", "ghost")
    assert machine.kcall(alice_task, "stat", "ghost") == -Errno.ENOENT
    assert machine.kcall_x(alice_task, "read_bytes", fd, 16) == b"still here"
    machine.kcall_x(alice_task, "close", fd)


def test_unlinked_file_is_freed_at_its_last_hold(machine, alice_task):
    """With no open description an unlinked file is unreachable at once;
    with one, it lives until that description's last descriptor closes.
    Reference counting alone frees it: the cycle collector is off."""

    def inode_ref(name):
        return weakref.ref(machine.vfs.resolve(name, cwd=alice_task.cwd).require())

    machine.write_file(alice_task, "loose", b"bytes")
    machine.write_file(alice_task, "held", b"bytes")
    loose, held = inode_ref("loose"), inode_ref("held")
    fd = machine.kcall_x(alice_task, "open", "held", OpenFlags.O_RDONLY)
    dup = machine.kcall_x(alice_task, "dup", fd)
    gc.disable()
    try:
        machine.kcall_x(alice_task, "unlink", "loose")
        machine.kcall_x(alice_task, "unlink", "held")
        assert loose() is None
        machine.kcall_x(alice_task, "close", fd)
        assert held() is not None  # the dup still holds it
        machine.kcall_x(alice_task, "close", dup)
        assert held() is None
    finally:
        gc.enable()
    assert machine.fs._orphans == {} and machine.fs._opens == {}


def test_scheduler_round_robin_interleaves():
    machine = Machine()
    cred = machine.add_user("u")
    order = []

    def worker(tag):
        def body(proc, args):
            for _ in range(3):
                yield proc.compute(us=1)
                order.append(tag)
            return 0

        return body

    machine.spawn(worker("a"), cred=cred)
    machine.spawn(worker("b"), cred=cred)
    machine.run_to_completion()
    # strict alternation: the ready queue is FIFO
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_many_processes_all_complete():
    machine = Machine()
    cred = machine.add_user("u")
    done = []

    def body(proc, args):
        yield proc.compute(us=1)
        done.append(1)
        return 0

    for _ in range(200):
        machine.spawn(body, cred=cred)
    machine.run_to_completion()
    assert len(done) == 200
