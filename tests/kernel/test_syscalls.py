"""The native syscall layer, exercised through host-agent kcalls."""

import pytest

from repro.kernel import (
    Errno,
    KernelError,
    OpenFlags,
    R_OK,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    W_OK,
    X_OK,
)


@pytest.fixture
def t(machine, alice):
    return machine.host_task(alice, cwd="/home/alice")


def write(machine, t, path, data=b"data", mode=0o644):
    machine.write_file(t, path, data, mode=mode)


# -- open/close -------------------------------------------------------------- #


def test_open_missing_without_creat(machine, t):
    assert machine.kcall(t, "open", "nope", OpenFlags.O_RDONLY) == -Errno.ENOENT


def test_open_creat_excl(machine, t):
    fd = machine.kcall_x(
        t, "open", "f", OpenFlags.O_WRONLY | OpenFlags.O_CREAT | OpenFlags.O_EXCL
    )
    machine.kcall_x(t, "close", fd)
    assert (
        machine.kcall(
            t, "open", "f", OpenFlags.O_WRONLY | OpenFlags.O_CREAT | OpenFlags.O_EXCL
        )
        == -Errno.EEXIST
    )


def test_open_trunc_clears_content(machine, t):
    write(machine, t, "f", b"old content")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
    machine.kcall_x(t, "close", fd)
    assert machine.read_file(t, "f") == b""


def test_open_directory_for_write_is_eisdir(machine, t):
    machine.kcall_x(t, "mkdir", "d", 0o755)
    assert machine.kcall(t, "open", "d", OpenFlags.O_WRONLY) == -Errno.EISDIR


def test_open_o_directory_on_file(machine, t):
    write(machine, t, "f")
    assert (
        machine.kcall(t, "open", "f", OpenFlags.O_RDONLY | OpenFlags.O_DIRECTORY)
        == -Errno.ENOTDIR
    )


def test_open_checks_permissions(machine, t, alice):
    write(machine, t, "readonly", mode=0o400)
    assert machine.kcall(t, "open", "readonly", OpenFlags.O_WRONLY) == -Errno.EACCES


def test_creat_respects_umask(machine, t):
    t.umask = 0o077
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_WRONLY | OpenFlags.O_CREAT, 0o666)
    machine.kcall_x(t, "close", fd)
    st = machine.kcall_x(t, "stat", "f")
    assert st.st_mode & 0o777 == 0o600


def test_append_mode(machine, t):
    write(machine, t, "f", b"start")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
    machine.kcall_x(t, "write_bytes", fd, b"+end")
    machine.kcall_x(t, "close", fd)
    assert machine.read_file(t, "f") == b"start+end"


# -- read/write/seek ------------------------------------------------------- #


def test_sequential_read_advances_offset(machine, t):
    write(machine, t, "f", b"abcdef")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_RDONLY)
    assert machine.kcall_x(t, "read_bytes", fd, 3) == b"abc"
    assert machine.kcall_x(t, "read_bytes", fd, 3) == b"def"
    assert machine.kcall_x(t, "read_bytes", fd, 3) == b""


def test_pread_does_not_move_offset(machine, t):
    write(machine, t, "f", b"abcdef")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_RDONLY)
    assert machine.kcall_x(t, "pread_bytes", fd, 2, 4) == b"ef"
    assert machine.kcall_x(t, "read_bytes", fd, 2) == b"ab"


def test_write_to_readonly_fd_is_ebadf(machine, t):
    write(machine, t, "f")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_RDONLY)
    assert machine.kcall(t, "write_bytes", fd, b"x") == -Errno.EBADF


def test_read_from_writeonly_fd_is_ebadf(machine, t):
    write(machine, t, "f")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_WRONLY)
    assert machine.kcall(t, "read_bytes", fd, 1) == -Errno.EBADF


def test_lseek_whences(machine, t):
    write(machine, t, "f", b"0123456789")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_RDONLY)
    assert machine.kcall_x(t, "lseek", fd, 4, SEEK_SET) == 4
    assert machine.kcall_x(t, "lseek", fd, 2, SEEK_CUR) == 6
    assert machine.kcall_x(t, "lseek", fd, -1, SEEK_END) == 9
    assert machine.kcall(t, "lseek", fd, -100, SEEK_SET) == -Errno.EINVAL
    assert machine.kcall(t, "lseek", fd, 0, 99) == -Errno.EINVAL


def test_ftruncate(machine, t):
    write(machine, t, "f", b"0123456789")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_RDWR)
    machine.kcall_x(t, "ftruncate", fd, 4)
    machine.kcall_x(t, "close", fd)
    assert machine.read_file(t, "f") == b"0123"


def test_dup_shares_offset(machine, t):
    write(machine, t, "f", b"abcdef")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_RDONLY)
    fd2 = machine.kcall_x(t, "dup", fd)
    machine.kcall_x(t, "read_bytes", fd, 3)
    assert machine.kcall_x(t, "read_bytes", fd2, 3) == b"def"


# -- metadata ------------------------------------------------------------ #


def test_stat_fields(machine, t):
    write(machine, t, "f", b"12345", mode=0o640)
    st = machine.kcall_x(t, "stat", "f")
    assert st.st_size == 5
    assert st.st_mode & 0o777 == 0o640
    assert st.is_file


def test_stat_follows_lstat_does_not(machine, t):
    write(machine, t, "f", b"123")
    machine.kcall_x(t, "symlink", "f", "link")
    assert machine.kcall_x(t, "stat", "link").is_file
    assert machine.kcall_x(t, "lstat", "link").is_symlink


def test_fstat_matches_stat(machine, t):
    write(machine, t, "f", b"abc")
    fd = machine.kcall_x(t, "open", "f", OpenFlags.O_RDONLY)
    assert machine.kcall_x(t, "fstat", fd).st_ino == machine.kcall_x(t, "stat", "f").st_ino


def test_access_modes(machine, t):
    write(machine, t, "f", mode=0o600)
    assert machine.kcall(t, "access", "f", R_OK | W_OK) == 0
    assert machine.kcall(t, "access", "f", X_OK) == -Errno.EACCES
    assert machine.kcall(t, "access", "ghost", R_OK) == -Errno.ENOENT


def test_readlink(machine, t):
    machine.kcall_x(t, "symlink", "/target", "l")
    assert machine.kcall_x(t, "readlink", "l") == "/target"
    write(machine, t, "plain")
    assert machine.kcall(t, "readlink", "plain") == -Errno.EINVAL


def test_chmod_owner_only(machine, t, alice):
    write(machine, t, "f")
    machine.kcall_x(t, "chmod", "f", 0o755)
    assert machine.kcall_x(t, "stat", "f").st_mode & 0o777 == 0o755
    bob = machine.add_user("bob")
    bob_task = machine.host_task(bob)
    assert machine.kcall(bob_task, "chmod", "/home/alice/f", 0o777) == -Errno.EPERM


def test_chown_root_only(machine, t, root_task):
    write(machine, t, "f")
    assert machine.kcall(t, "chown", "f", 0, 0) == -Errno.EPERM
    assert machine.kcall(root_task, "chown", "/home/alice/f", 0, 0) == 0


def test_truncate_path(machine, t):
    write(machine, t, "f", b"0123456789")
    machine.kcall_x(t, "truncate", "f", 2)
    assert machine.read_file(t, "f") == b"01"


# -- namespace ------------------------------------------------------------ #


def test_mkdir_rmdir(machine, t):
    machine.kcall_x(t, "mkdir", "d", 0o755)
    assert machine.kcall_x(t, "stat", "d").is_dir
    machine.kcall_x(t, "rmdir", "d")
    assert machine.kcall(t, "stat", "d") == -Errno.ENOENT


def test_mkdir_existing(machine, t):
    machine.kcall_x(t, "mkdir", "d", 0o755)
    assert machine.kcall(t, "mkdir", "d", 0o755) == -Errno.EEXIST


def test_unlink_and_rename(machine, t):
    write(machine, t, "a", b"1")
    machine.kcall_x(t, "rename", "a", "b")
    assert machine.kcall(t, "stat", "a") == -Errno.ENOENT
    assert machine.read_file(t, "b") == b"1"
    machine.kcall_x(t, "unlink", "b")
    assert machine.kcall(t, "stat", "b") == -Errno.ENOENT


def test_rename_directory_into_its_own_subtree_is_einval(machine, t):
    machine.kcall_x(t, "mkdir", "x", 0o755)
    machine.kcall_x(t, "mkdir", "x/y", 0o755)
    for target in ("x/y/z", "x/z", "x/y/x"):
        assert machine.kcall(t, "rename", "x", target) == -Errno.EINVAL
    # nothing moved: both directories are still where they were
    assert machine.kcall_x(t, "stat", "x").is_dir
    assert machine.kcall_x(t, "stat", "x/y").is_dir
    assert machine.kcall(t, "stat", "x/z") == -Errno.ENOENT
    machine.fs.check_invariants()
    # a sibling whose name merely starts the same is not a subtree
    machine.kcall_x(t, "mkdir", "xy", 0o755)
    machine.kcall_x(t, "rename", "x", "xy/x")
    assert machine.kcall_x(t, "stat", "xy/x/y").is_dir


def test_link_counts(machine, t):
    write(machine, t, "orig", b"x")
    machine.kcall_x(t, "link", "orig", "alias")
    assert machine.kcall_x(t, "stat", "orig").st_nlink == 2
    machine.kcall_x(t, "unlink", "orig")
    assert machine.read_file(t, "alias") == b"x"


def test_readdir_lists_names(machine, t):
    write(machine, t, "z")
    write(machine, t, "a")
    names = machine.kcall_x(t, "readdir", ".")
    assert names == sorted(names)
    assert {"a", "z"} <= set(names)


def test_readdir_requires_read_permission(machine, t, alice):
    machine.kcall_x(t, "mkdir", "private", 0o300)
    assert machine.kcall(t, "readdir", "private") == -Errno.EACCES


def test_chdir_getcwd(machine, t):
    machine.kcall_x(t, "mkdir", "sub", 0o755)
    machine.kcall_x(t, "chdir", "sub")
    assert machine.kcall_x(t, "getcwd") == "/home/alice/sub"
    machine.kcall_x(t, "chdir", "..")
    assert machine.kcall_x(t, "getcwd") == "/home/alice"


def test_chdir_to_file_is_enotdir(machine, t):
    write(machine, t, "f")
    assert machine.kcall(t, "chdir", "f") == -Errno.ENOTDIR


# -- identity & misc -------------------------------------------------------- #


def test_getuid_and_username(machine, t, alice):
    assert machine.kcall(t, "getuid") == alice.uid
    assert machine.kcall(t, "get_user_name") == "alice"


def test_unknown_syscall_is_enosys(machine, t):
    assert machine.kcall(t, "frobnicate") == -Errno.ENOSYS


def test_mount_and_ptrace_unimplemented(machine, t):
    assert machine.kcall(t, "mount") == -Errno.ENOSYS
    assert machine.kcall(t, "ptrace") == -Errno.ENOSYS


def test_kcall_x_raises(machine, t):
    with pytest.raises(KernelError) as info:
        machine.kcall_x(t, "stat", "ghost")
    assert info.value.errno is Errno.ENOENT


def test_every_kcall_charges_trap_time(machine, t):
    before = machine.clock.now_ns
    machine.kcall(t, "getuid")
    assert machine.clock.now_ns - before >= machine.costs.syscall_trap_ns
