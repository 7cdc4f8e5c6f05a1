"""Property: ``stat_of`` builds the record the dataclass ``__init__`` builds.

``stat_of`` fills a frozen :class:`StatResult` in directly instead of
through its ``__init__`` (see its docstring).  For file, directory and
symlink inodes with random fields, the result must be indistinguishable
from ``StatResult(**fields)``, with the fields worked out here from the
inode as ``stat(2)`` defines them: equal, the same hash and repr, and
still frozen.
"""

import dataclasses
import stat as stat_mod

import pytest
from hypothesis import given, strategies as st

from repro.kernel.inode import FileType, Inode, StatResult, stat_of

TYPE_BITS = {
    FileType.FILE: stat_mod.S_IFREG,
    FileType.DIR: stat_mod.S_IFDIR,
    FileType.SYMLINK: stat_mod.S_IFLNK,
}

ints = st.integers(min_value=0, max_value=2**63)
names = st.text(min_size=1, max_size=8)


@st.composite
def inodes(draw):
    ftype = draw(st.sampled_from(list(FileType)))
    return Inode(
        ino=draw(ints),
        ftype=ftype,
        mode=draw(st.integers(min_value=0, max_value=0o177777)),
        uid=draw(ints),
        gid=draw(ints),
        nlink=draw(ints),
        data=bytearray(draw(st.binary(max_size=64))) if ftype is FileType.FILE else bytearray(),
        entries=draw(st.dictionaries(names, ints, max_size=6)) if ftype is FileType.DIR else {},
        symlink_target=draw(names) if ftype is FileType.SYMLINK else "",
        atime_ns=draw(ints),
        mtime_ns=draw(ints),
        ctime_ns=draw(ints),
    )


def expected_fields(node: Inode) -> dict:
    if node.ftype is FileType.FILE:
        size = len(node.data)
    elif node.ftype is FileType.DIR:
        size = len(node.entries)
    else:
        size = len(node.symlink_target)
    return {
        "st_ino": node.ino,
        "st_mode": TYPE_BITS[node.ftype] | (node.mode & 0o7777),
        "st_nlink": node.nlink,
        "st_uid": node.uid,
        "st_gid": node.gid,
        "st_size": size,
        "st_atime_ns": node.atime_ns,
        "st_mtime_ns": node.mtime_ns,
        "st_ctime_ns": node.ctime_ns,
    }


@given(inodes())
def test_stat_of_matches_the_dataclass_init(node):
    fields = expected_fields(node)
    want = StatResult(**fields)
    got = stat_of(node)
    assert type(got) is StatResult
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert dataclasses.asdict(got) == fields
    assert (got.is_dir, got.is_file, got.is_symlink) == (
        node.ftype is FileType.DIR,
        node.ftype is FileType.FILE,
        node.ftype is FileType.SYMLINK,
    )
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(got, name)
    assert got == want  # the refused writes changed nothing
