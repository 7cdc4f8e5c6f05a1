"""The delegating supervisor: every handler family, both data paths."""

import pytest

from repro.core.acl import ACL_FILE_NAME
from repro.core.box import IdentityBox
from repro.kernel import Errno, OpenFlags
from repro.kernel.syscalls import R_OK, W_OK, X_OK, SEEK_END
from tests.helpers import boxed_read_file, boxed_write_file, run_calls

SMALL = b"tiny"
LARGE = bytes(range(256)) * 64  # 16 KiB, well over the peek/poke threshold


@pytest.fixture
def vbox(machine, alice):
    return IdentityBox(machine, alice, "Visitor")


# -- data movement: peek/poke vs the I/O channel ----------------------------- #


def test_small_write_read_roundtrip(machine, vbox):
    assert boxed_write_file(vbox, "small", SMALL) == len(SMALL)
    assert boxed_read_file(vbox, "small") == SMALL


def test_large_write_read_roundtrip(machine, vbox):
    assert boxed_write_file(vbox, "large", LARGE) == len(LARGE)
    assert boxed_read_file(vbox, "large") == LARGE


def test_large_transfers_use_the_channel(machine, vbox):
    before = vbox.supervisor.channel.bytes_staged
    boxed_write_file(vbox, "large", LARGE)
    boxed_read_file(vbox, "large")
    moved = vbox.supervisor.channel.bytes_staged - before
    assert moved >= 2 * len(LARGE)


def test_small_transfers_bypass_the_channel(machine, vbox):
    before = vbox.supervisor.channel.bytes_staged
    boxed_write_file(vbox, "small", SMALL)
    boxed_read_file(vbox, "small")
    assert vbox.supervisor.channel.bytes_staged == before


def test_boundary_transfer_sizes(machine, vbox):
    threshold = vbox.supervisor.small_io_threshold
    for size in (threshold - 1, threshold, threshold + 1):
        data = bytes(i % 251 for i in range(size))
        assert boxed_write_file(vbox, f"f{size}", data) == size
        assert boxed_read_file(vbox, f"f{size}") == data


def test_empty_read_at_eof(machine, vbox):
    boxed_write_file(vbox, "f", b"ab")
    results = []

    def body(proc, args):
        fd = yield proc.sys.open("f", OpenFlags.O_RDONLY)
        buf = proc.alloc(16)
        results.append((yield proc.sys.read(fd, buf, 16)))
        results.append((yield proc.sys.read(fd, buf, 16)))
        yield proc.sys.close(fd)
        return 0

    vbox.spawn(body)
    machine.run()
    assert results == [2, 0]


def test_pread_pwrite_with_offsets(machine, vbox):
    def body(proc, args):
        fd = yield proc.sys.open("f", OpenFlags.O_RDWR | OpenFlags.O_CREAT)
        big = proc.alloc_bytes(LARGE)
        yield proc.sys.pwrite(fd, big, len(LARGE), 0)
        tiny = proc.alloc_bytes(b"XY")
        yield proc.sys.pwrite(fd, tiny, 2, 100)
        buf = proc.alloc(4)
        n = yield proc.sys.pread(fd, buf, 4, 99)
        proc.scratch["window"] = proc.read_buffer(buf, n)
        yield proc.sys.close(fd)
        return 0

    proc = vbox.spawn(body)
    machine.run()
    assert proc.context.scratch["window"] == LARGE[99:100] + b"XY" + LARGE[102:103]


def test_sequential_reads_advance(machine, vbox):
    boxed_write_file(vbox, "f", b"abcdef")
    chunks = []

    def body(proc, args):
        fd = yield proc.sys.open("f", OpenFlags.O_RDONLY)
        buf = proc.alloc(3)
        for _ in range(2):
            n = yield proc.sys.read(fd, buf, 3)
            chunks.append(proc.read_buffer(buf, n))
        yield proc.sys.close(fd)
        return 0

    vbox.spawn(body)
    machine.run()
    assert chunks == [b"abc", b"def"]


# -- descriptor ops ------------------------------------------------------- #


def test_lseek_fstat_ftruncate_dup(machine, vbox):
    boxed_write_file(vbox, "f", b"0123456789")
    results = run_calls(
        [
            ("open", "f", int(OpenFlags.O_RDWR)),
        ],
        machine=machine,
        box=vbox,
    )
    fd = results[0]

    def body(proc, args):
        fd = yield proc.sys.open("f", OpenFlags.O_RDWR)
        proc.scratch["size"] = (yield proc.sys.fstat(fd)).st_size
        proc.scratch["end"] = yield proc.sys.lseek(fd, 0, SEEK_END)
        fd2 = yield proc.sys.dup(fd)
        proc.scratch["dup"] = fd2
        yield proc.sys.ftruncate(fd, 4)
        proc.scratch["size2"] = (yield proc.sys.fstat(fd2)).st_size
        yield proc.sys.close(fd)
        yield proc.sys.close(fd2)
        return 0

    proc = vbox.spawn(body)
    machine.run()
    assert proc.context.scratch["size"] == 10
    assert proc.context.scratch["end"] == 10
    assert proc.context.scratch["size2"] == 4
    assert proc.context.scratch["dup"] != fd


def test_bad_fd_operations(machine, vbox):
    results = run_calls(
        [("close", 77), ("lseek", 77, 0, 0), ("fstat", 77)],
        machine=machine,
        box=vbox,
    )
    assert results == [-Errno.EBADF, -Errno.EBADF, -Errno.EBADF]


def test_write_on_readonly_boxed_fd(machine, vbox):
    boxed_write_file(vbox, "f", b"x")

    def body(proc, args):
        fd = yield proc.sys.open("f", OpenFlags.O_RDONLY)
        addr = proc.alloc_bytes(b"y")
        proc.scratch["w"] = yield proc.sys.write(fd, addr, 1)
        yield proc.sys.close(fd)
        return 0

    proc = vbox.spawn(body)
    machine.run()
    assert proc.context.scratch["w"] == -Errno.EBADF


# -- metadata ------------------------------------------------------------ #


def test_stat_lstat_access_readlink(machine, vbox):
    boxed_write_file(vbox, "f", b"abc")
    results = run_calls(
        [
            ("symlink", "f", "ln"),
            ("stat", "ln"),
            ("lstat", "ln"),
            ("readlink", "ln"),
            ("access", "f", R_OK | W_OK),
            ("access", "f", X_OK),
        ],
        machine=machine,
        box=vbox,
    )
    assert results[0] == 0
    assert results[1].is_file
    assert results[2].is_symlink
    assert results[3] == "f"
    assert results[4] == 0
    assert results[5] == 0  # x granted by the home ACL (rwlxa)


def test_stat_of_acl_file_is_enoent(machine, vbox):
    results = run_calls(
        [("stat", ACL_FILE_NAME), ("lstat", ACL_FILE_NAME), ("access", ACL_FILE_NAME, R_OK)],
        machine=machine,
        box=vbox,
    )
    assert results == [-Errno.ENOENT, -Errno.ENOENT, -Errno.ENOENT]


def test_chmod_chown_denied_in_box(machine, vbox):
    boxed_write_file(vbox, "f", b"x")
    results = run_calls(
        [("chmod", "f", 0o777), ("chown", "f", 0, 0)],
        machine=machine,
        box=vbox,
    )
    assert results == [-Errno.EPERM, -Errno.EPERM]


def test_truncate_requires_w(machine, alice, alice_task, vbox):
    boxed_write_file(vbox, "mine", b"0123456789")
    results = run_calls([("truncate", "mine", 3)], machine=machine, box=vbox)
    assert results == [0]
    machine.write_file(alice_task, "/home/alice/hers", b"0123456789", mode=0o644)
    results = run_calls(
        [("truncate", "/home/alice/hers", 0)], machine=machine, box=vbox
    )
    assert results == [-Errno.EACCES]


def test_chdir_and_getcwd(machine, vbox):
    results = run_calls(
        [("mkdir", "sub"), ("chdir", "sub"), ("getcwd",)],
        machine=machine,
        box=vbox,
    )
    assert results[1] == 0
    assert results[2] == f"{vbox.home}/sub"


def test_chdir_denied_without_list_right(machine, alice, alice_task, vbox):
    machine.kcall_x(alice_task, "mkdir", "/home/alice/private", 0o700)
    results = run_calls(
        [("chdir", "/home/alice/private")], machine=machine, box=vbox
    )
    assert results == [-Errno.EACCES]


def test_chdir_to_file_is_enotdir(machine, vbox):
    boxed_write_file(vbox, "f", b"x")
    results = run_calls([("chdir", "f")], machine=machine, box=vbox)
    assert results == [-Errno.ENOTDIR]


# -- namespace mutation ---------------------------------------------------- #


def test_rename_within_home(machine, vbox):
    boxed_write_file(vbox, "a", b"1")
    results = run_calls([("rename", "a", "b")], machine=machine, box=vbox)
    assert results == [0]
    assert boxed_read_file(vbox, "b") == b"1"


def test_rename_directory_into_its_own_subtree_is_einval(machine, vbox):
    results = run_calls(
        [
            ("mkdir", "x", 0o755),
            ("mkdir", "x/y", 0o755),
            ("rename", "x", "x/y/z"),
            ("stat", "x/y"),
        ],
        machine=machine,
        box=vbox,
    )
    assert results[:3] == [0, 0, -Errno.EINVAL]
    assert results[3].is_dir


def test_rename_out_of_home_denied(machine, vbox):
    boxed_write_file(vbox, "a", b"1")
    results = run_calls(
        [("rename", "a", "/home/alice/stolen")], machine=machine, box=vbox
    )
    assert results == [-Errno.EACCES]


def test_acl_file_protected_from_all_mutation(machine, vbox):
    results = run_calls(
        [
            ("unlink", ACL_FILE_NAME),
            ("rename", ACL_FILE_NAME, "x"),
            ("rename", "x", ACL_FILE_NAME),
            ("truncate", ACL_FILE_NAME, 0),
            ("symlink", "target", ACL_FILE_NAME),
            ("link", ACL_FILE_NAME, "y"),
        ],
        machine=machine,
        box=vbox,
    )
    assert all(r == -Errno.EACCES for r in results)


def test_hard_link_to_unreadable_file_denied(machine, alice, alice_task, vbox):
    machine.write_file(alice_task, "/home/alice/secret", b"s", mode=0o600)
    results = run_calls(
        [("link", "/home/alice/secret", "grab")], machine=machine, box=vbox
    )
    assert results == [-Errno.EACCES]


def test_hard_link_within_home_allowed(machine, vbox):
    boxed_write_file(vbox, "orig", b"x")
    results = run_calls([("link", "orig", "alias")], machine=machine, box=vbox)
    assert results == [0]
    assert boxed_read_file(vbox, "alias") == b"x"


def test_rmdir_own_reserve_directory(machine, vbox):
    results = run_calls(
        [("mkdir", "scratch"), ("rmdir", "scratch")], machine=machine, box=vbox
    )
    assert results == [0, 0]


def test_symlink_write_through_checked_at_target(machine, alice, alice_task, vbox):
    machine.write_file(alice_task, "/home/alice/hers", b"data", mode=0o644)
    results = run_calls([("symlink", "/home/alice/hers", "alias")], machine=machine, box=vbox)
    assert results == [0]
    # reading through the link works (world-readable target)...
    assert boxed_read_file(vbox, "alias") == b"data"
    # ...but writing through it is judged by the target's directory
    assert boxed_write_file(vbox, "alias", b"clobber") == -Errno.EACCES


# -- processes ------------------------------------------------------------ #


def test_spawn_denied_without_x(machine, alice, vbox):
    machine.register_program("noop", lambda proc, args: iter(()))
    machine.install_program(vbox.owner_task, f"{vbox.home}/tool.exe", "noop")
    # strip the x right from the visitor
    vbox.grant(vbox.home, "Visitor", "rwla")
    results = run_calls([("spawn", "tool.exe", ())], machine=machine, box=vbox)
    assert results == [-Errno.EACCES]


def test_unknown_syscall_in_box_is_enosys(machine, vbox):
    results = run_calls(
        [("mount", "/dev/x", "/mnt"), ("ptrace", 1)], machine=machine, box=vbox
    )
    assert results == [-Errno.ENOSYS, -Errno.ENOSYS]


def test_getpid_passthrough(machine, vbox):
    def body(proc, args):
        proc.scratch["pid"] = yield proc.sys.getpid()
        return 0

    proc = vbox.spawn(body)
    machine.run()
    assert proc.context.scratch["pid"] == proc.pid


def test_getuid_is_supervisor_uid(machine, alice, vbox):
    results = run_calls([("getuid",)], machine=machine, box=vbox)
    assert results == [alice.uid]


# -- getacl/setacl ---------------------------------------------------------- #


def test_getacl_of_file_reports_directory_acl(machine, vbox):
    boxed_write_file(vbox, "f", b"x")
    results = run_calls([("getacl", "f")], machine=machine, box=vbox)
    assert "Visitor rwlxa" in results[0]


def test_getacl_of_unacled_dir_is_empty(machine, alice, alice_task, vbox):
    machine.kcall_x(alice_task, "mkdir", "/home/alice/pub", 0o755)
    results = run_calls([("getacl", "/home/alice/pub")], machine=machine, box=vbox)
    # /home/alice/pub has no ACL and nobody-fallback denies 'l' (mode 755
    # grants read to others, so listing is allowed and the ACL is empty)
    assert results == [""]


def test_setacl_through_a_symlink_revokes_for_every_name(machine, alice, vbox):
    other = IdentityBox(
        machine, alice, "Other", supervisor=vbox.supervisor, make_home=False
    )
    real, alias = f"{vbox.home}/real", f"{vbox.home}/s"
    results = run_calls(
        [
            ("mkdir", "real"),
            ("mkdir", "real/d"),
            ("setacl", "real/d", "Other", "rl"),
            ("symlink", real, "s"),
        ],
        machine=machine,
        box=vbox,
    )
    assert results == [0, 0, 0, 0]
    assert boxed_write_file(vbox, "real/d/f", b"data") == 4
    assert boxed_read_file(other, f"{real}/d/f") == b"data"
    results = run_calls(
        [("setacl", "s/d", "Other", "-"), ("getacl", "real/d")],
        machine=machine,
        box=vbox,
    )
    assert results[0] == 0
    assert "Other" not in results[1]
    for path in (f"{real}/d/f", f"{alias}/d/f"):
        assert boxed_read_file(other, path) == -Errno.EACCES


def test_write_inside_a_shared_directory_is_no_right_to_remove_it(
    machine, alice, alice_task
):
    # DESIGN §6 finding 5: the visitor holds rwl inside a directory the
    # owner shared and nothing in its parent, so it may work inside the
    # directory but not delete the directory itself
    shared = "/home/alice/shared"
    machine.kcall_x(alice_task, "mkdir", shared, 0o755)
    box = IdentityBox(machine, alice, "hostname:laptop.cs.nowhere.edu")
    box.grant(shared, "hostname:*.nowhere.edu", "rwl")
    results = run_calls(
        [("rmdir", shared), ("mkdir", f"{shared}/mine"), ("rmdir", f"{shared}/mine")],
        machine=machine,
        box=box,
    )
    assert results == [-Errno.EACCES, 0, 0]
    assert machine.kcall_x(alice_task, "stat", shared).is_dir


def test_setacl_bad_rights_is_einval(machine, vbox):
    results = run_calls(
        [("setacl", ".", "Other", "zz")], machine=machine, box=vbox, cwd=vbox.home
    )
    assert results == [-Errno.EINVAL]


# -- statistics & cleanup ---------------------------------------------------- #


def test_supervisor_counts_syscalls_and_denials(machine, alice, alice_task, vbox):
    machine.write_file(alice_task, "/home/alice/secret", b"s", mode=0o600)
    boxed_read_file(vbox, "/home/alice/secret")
    assert vbox.supervisor.syscalls_handled >= 1
    assert vbox.supervisor.denials >= 1


def test_child_exit_releases_supervisor_descriptors(machine, vbox):
    def leaky(proc, args):
        yield proc.sys.open("f1", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        yield proc.sys.open("f2", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        return 0  # exits without closing

    vbox.spawn(leaky)
    machine.run()
    # the supervisor's own descriptor table holds only the channel fd
    assert len(vbox.supervisor.task.fdtable) == 1
    assert len(vbox.supervisor.table) == 0
