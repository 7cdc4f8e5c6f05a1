"""The in-memory filesystem: directory and data operations."""

import pytest

from repro.kernel.errno import Errno, KernelError
from repro.kernel.localfs import LocalFS, check_name


@pytest.fixture
def fs():
    return LocalFS()


def test_root_exists(fs):
    assert fs.root.is_dir
    assert fs.root.ino == 1


def test_create_and_lookup_file(fs):
    node = fs.create_file(fs.root, "a.txt", uid=1, gid=1)
    assert fs.lookup(fs.root, "a.txt") is node
    assert node.is_file and node.nlink == 1


def test_create_duplicate_fails(fs):
    fs.create_file(fs.root, "a", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.create_file(fs.root, "a", 1, 1)
    assert info.value.errno is Errno.EEXIST


def test_lookup_missing_is_enoent(fs):
    with pytest.raises(KernelError) as info:
        fs.lookup(fs.root, "ghost")
    assert info.value.errno is Errno.ENOENT


def test_lookup_dot_and_dotdot(fs):
    sub = fs.mkdir(fs.root, "sub", 1, 1)
    assert fs.lookup(sub, ".") is sub
    assert fs.lookup(sub, "..") is fs.root
    assert fs.lookup(fs.root, "..") is fs.root  # root's parent is root


def test_mkdir_maintains_nlink(fs):
    before = fs.root.nlink
    sub = fs.mkdir(fs.root, "sub", 1, 1)
    assert sub.nlink == 2
    assert fs.root.nlink == before + 1


def test_lookup_on_file_is_enotdir(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.lookup(f, "x")
    assert info.value.errno is Errno.ENOTDIR


def test_symlink_stores_target(fs):
    link = fs.symlink(fs.root, "l", "/target/path", 1, 1)
    assert link.is_symlink
    assert link.symlink_target == "/target/path"


def test_hard_link_shares_inode(fs):
    f = fs.create_file(fs.root, "orig", 1, 1)
    fs.link(fs.root, "alias", f)
    assert f.nlink == 2
    assert fs.lookup(fs.root, "alias") is f


def test_hard_link_to_directory_forbidden(fs):
    d = fs.mkdir(fs.root, "d", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.link(fs.root, "dlink", d)
    assert info.value.errno is Errno.EPERM


def test_unlink_frees_at_zero_nlink(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    ino = f.ino
    fs.unlink(fs.root, "f")
    with pytest.raises(KernelError):
        fs.inode(ino)


def test_unlink_keeps_inode_while_linked(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    fs.link(fs.root, "alias", f)
    fs.unlink(fs.root, "f")
    assert fs.inode(f.ino) is f
    assert f.nlink == 1


def test_unlink_directory_is_eisdir(fs):
    fs.mkdir(fs.root, "d", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.unlink(fs.root, "d")
    assert info.value.errno is Errno.EISDIR


def test_rmdir_removes_empty_dir(fs):
    fs.mkdir(fs.root, "d", 1, 1)
    fs.rmdir(fs.root, "d")
    with pytest.raises(KernelError):
        fs.lookup(fs.root, "d")


def test_rmdir_nonempty_fails(fs):
    d = fs.mkdir(fs.root, "d", 1, 1)
    fs.create_file(d, "f", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.rmdir(fs.root, "d")
    assert info.value.errno is Errno.ENOTEMPTY


def test_rmdir_restores_parent_nlink(fs):
    before = fs.root.nlink
    fs.mkdir(fs.root, "d", 1, 1)
    fs.rmdir(fs.root, "d")
    assert fs.root.nlink == before


def test_rmdir_file_is_enotdir(fs):
    fs.create_file(fs.root, "f", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.rmdir(fs.root, "f")
    assert info.value.errno is Errno.ENOTDIR


def test_rename_moves_entry(fs):
    d1 = fs.mkdir(fs.root, "d1", 1, 1)
    d2 = fs.mkdir(fs.root, "d2", 1, 1)
    f = fs.create_file(d1, "f", 1, 1)
    fs.rename(d1, "f", d2, "g")
    assert fs.lookup(d2, "g") is f
    with pytest.raises(KernelError):
        fs.lookup(d1, "f")


def test_rename_replaces_existing_file(fs):
    f1 = fs.create_file(fs.root, "a", 1, 1)
    f2 = fs.create_file(fs.root, "b", 1, 1)
    fs.rename(fs.root, "a", fs.root, "b")
    assert fs.lookup(fs.root, "b") is f1
    assert f2.nlink == 0 or f2.ino not in fs._inodes


def test_rename_directory_updates_parent_pointer(fs):
    d1 = fs.mkdir(fs.root, "d1", 1, 1)
    d2 = fs.mkdir(fs.root, "d2", 1, 1)
    sub = fs.mkdir(d1, "sub", 1, 1)
    fs.rename(d1, "sub", d2, "sub")
    assert fs.parent_of(sub) is d2


def test_rename_dir_over_nonempty_dir_fails(fs):
    d1 = fs.mkdir(fs.root, "d1", 1, 1)
    d2 = fs.mkdir(fs.root, "d2", 1, 1)
    fs.create_file(d2, "occupied", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.rename(fs.root, "d1", fs.root, "d2")
    assert info.value.errno is Errno.ENOTEMPTY


def test_rename_file_over_dir_fails(fs):
    fs.create_file(fs.root, "f", 1, 1)
    fs.mkdir(fs.root, "d", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.rename(fs.root, "f", fs.root, "d")
    assert info.value.errno is Errno.EISDIR


def test_readdir_sorted_without_dots(fs):
    fs.create_file(fs.root, "b", 1, 1)
    fs.create_file(fs.root, "a", 1, 1)
    fs.mkdir(fs.root, "c", 1, 1)
    # root also holds the bootstrap entries of a fresh LocalFS (none here)
    assert fs.readdir(fs.root) == ["a", "b", "c"]


# -- file data ------------------------------------------------------------ #


def test_write_read_at(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    assert fs.write_at(f, 0, b"hello world") == 11
    assert fs.read_at(f, 6, 5) == b"world"


def test_write_beyond_end_zero_fills(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    fs.write_at(f, 4, b"x")
    assert bytes(f.data) == b"\x00\x00\x00\x00x"


def test_read_past_eof_is_short(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    fs.write_at(f, 0, b"abc")
    assert fs.read_at(f, 2, 100) == b"c"
    assert fs.read_at(f, 10, 5) == b""


def test_read_from_dir_is_eisdir(fs):
    d = fs.mkdir(fs.root, "d", 1, 1)
    with pytest.raises(KernelError) as info:
        fs.read_at(d, 0, 1)
    assert info.value.errno is Errno.EISDIR


def test_truncate_shrinks_and_grows(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    fs.write_at(f, 0, b"123456")
    fs.truncate(f, 3)
    assert bytes(f.data) == b"123"
    fs.truncate(f, 5)
    assert bytes(f.data) == b"123\x00\x00"


def test_negative_offsets_rejected(fs):
    f = fs.create_file(fs.root, "f", 1, 1)
    with pytest.raises(KernelError):
        fs.read_at(f, -1, 1)
    with pytest.raises(KernelError):
        fs.write_at(f, -1, b"x")
    with pytest.raises(KernelError):
        fs.truncate(f, -1)


# -- name validation and invariants ---------------------------------------- #


@pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "nul\x00byte", "x" * 300])
def test_check_name_rejects(bad):
    with pytest.raises(KernelError):
        check_name(bad)


def test_check_name_accepts_normal_names():
    check_name("file.txt")
    check_name(".hidden")
    check_name("with spaces")


def test_invariants_hold_after_mixed_operations(fs):
    d = fs.mkdir(fs.root, "d", 1, 1)
    f = fs.create_file(d, "f", 1, 1)
    fs.link(d, "f2", f)
    fs.symlink(d, "s", "f", 1, 1)
    fs.rename(d, "f", fs.root, "moved")
    fs.unlink(d, "f2")
    fs.check_invariants()
