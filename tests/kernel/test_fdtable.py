"""Descriptor tables and open-file descriptions."""

from itertools import combinations

import pytest

from repro.kernel.errno import Errno, KernelError
from repro.kernel.fdtable import FDTable, OpenFile, OpenFlags, can_read, can_write
from repro.kernel.inode import FileType, Inode
from tests.helpers import oracle_open_access


def make_of(flags=OpenFlags.O_RDONLY):
    inode = Inode(ino=9, ftype=FileType.FILE, mode=0o644, uid=1, gid=1)
    inode.data.extend(b"0123456789")
    return OpenFile(inode=inode, flags=flags, path="/f")


@pytest.fixture
def table():
    return FDTable()


def test_install_starts_at_three(table):
    assert table.install(make_of()) == 3
    assert table.install(make_of()) == 4


def test_get_returns_installed(table):
    of = make_of()
    fd = table.install(of)
    assert table.get(fd) is of


def test_get_bad_fd(table):
    with pytest.raises(KernelError) as info:
        table.get(42)
    assert info.value.errno is Errno.EBADF


def test_close_frees_and_reuses_lowest(table):
    fd_a = table.install(make_of())
    table.install(make_of())
    table.close(fd_a)
    assert table.install(make_of()) == fd_a


def test_double_close_is_ebadf(table):
    fd = table.install(make_of())
    table.close(fd)
    with pytest.raises(KernelError):
        table.close(fd)


def test_dup_shares_description(table):
    of = make_of()
    fd = table.install(of)
    fd2 = table.dup(fd)
    assert fd2 != fd
    assert table.get(fd2) is of
    assert of.refcount == 2


def test_dup_shares_offset(table):
    of = make_of()
    fd = table.install(of)
    fd2 = table.dup(fd)
    table.get(fd).offset = 5
    assert table.get(fd2).offset == 5


def test_close_decrements_refcount(table):
    of = make_of()
    fd = table.install(of)
    fd2 = table.dup(fd)
    table.close(fd)
    assert of.refcount == 1
    table.close(fd2)
    assert of.refcount == 0


def test_fork_copy_shares_descriptions(table):
    of = make_of()
    fd = table.install(of)
    child = table.fork_copy()
    assert child.get(fd) is of
    assert of.refcount == 2
    child.get(fd).offset = 7
    assert table.get(fd).offset == 7  # shared offset, as after fork(2)


def test_close_all(table):
    of = make_of()
    table.install(of)
    table.install(make_of())
    table.close_all()
    assert len(table) == 0
    assert of.refcount == 0


def test_open_fds_sorted(table):
    table.install(make_of())
    table.install(make_of())
    assert table.open_fds() == [3, 4]


def test_install_at_specific_fd(table):
    of = make_of()
    assert table.install(of, fd=100) == 100
    assert table.get(100) is of


def test_install_over_existing_replaces(table):
    first = make_of()
    table.install(first, fd=50)
    second = make_of()
    table.install(second, fd=50)
    assert table.get(50) is second
    assert first.refcount == 0


def test_accmode_predicates():
    assert OpenFlags.O_RDONLY.readable and not OpenFlags.O_RDONLY.writable
    assert OpenFlags.O_WRONLY.writable and not OpenFlags.O_WRONLY.readable
    rdwr = OpenFlags.O_RDWR
    assert rdwr.readable and rdwr.writable
    combined = OpenFlags.O_WRONLY | OpenFlags.O_CREAT | OpenFlags.O_TRUNC
    assert combined.writable and not combined.readable


def test_seek_end():
    of = make_of()
    of.seek_end()
    assert of.offset == 10


def test_access_mode_matches_the_enum_definitions_for_every_flag_combination():
    bits = [int(flag) for flag in OpenFlags if int(flag)]
    checked = 0
    for size in range(len(bits) + 1):
        for combo in combinations(bits, size):
            value = sum(combo)
            flags = OpenFlags(value)
            accmode, readable, writable = oracle_open_access(flags)
            assert type(flags.accmode) is OpenFlags and flags.accmode == accmode
            assert (flags.readable, flags.writable) == (readable, writable), oct(value)
            assert (can_read(value), can_write(value)) == (readable, writable), oct(value)
            checked += 1
    # every subset of the seven non-zero flags, O_WRONLY|O_RDWR included
    assert checked == 2 ** 7
