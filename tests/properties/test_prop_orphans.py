"""Property test: an unlinked file lives exactly as long as its holds.

``LocalFS`` keeps a dead inode (nlink 0) in ``_orphans`` only while an
open description minted by ``LocalFS.open_file`` holds it through a
table of the current incarnation, and drops it at the last release.
Hypothesis interleaves opens, ``dup``, fork-shared descriptor tables,
closes, process exit, unlink, rename over an existing name, rmdir,
writes and reads through held descriptors, world snapshots, restores
(which leave every earlier table stale) and world forks.  A process
spawned on a stale table must be refused with EBADF.  After every step:

* ``_opens`` counts exactly the live descriptions held by tables stamped
  with the current incarnation, and ``_orphans`` is exactly the set of
  held inodes no name reaches;
* every snapshot still reads as it read when it was taken: a write
  through a held descriptor never lands in a snapshot's frozen inode;
* a read through a held descriptor returns what was written through
  the descriptors of that file (the model keeps bytes per inode).

A release that never runs, a release that ignores the incarnation fence
(a stale table torn down after a restore would then drop a hold of the
rewound world), a spawn that adopts a stale table (its process would
reach the rewound inodes its descriptors alias) and an orphan dropped at
unlink whatever its holds each break one of these; the ``@example``
scripts pin one case of each.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernel.errno import Errno, KernelError
from repro.kernel.fdtable import OpenFlags
from tests.helpers import make_machine

FILES = ("/f", "/g")
DIRS = ("/d", "/e")
PATHS = FILES + DIRS
#: host tasks whose tables hold descriptions; a step may add more
HOLDERS = 2
MAX_HOLDERS = 4

holder = st.integers(min_value=0, max_value=MAX_HOLDERS - 1)
handle = st.integers(min_value=0, max_value=7)
opens = st.tuples(st.just("open"), holder, st.sampled_from(PATHS))
unlinks = st.tuples(st.just("unlink"), st.sampled_from(FILES))
steps = st.lists(
    st.one_of(
        # opens and unlinks twice as often: most scripts hold a dead file
        opens,
        opens,
        unlinks,
        unlinks,
        st.tuples(st.just("create"), st.sampled_from(FILES), st.binary(max_size=6)),
        st.tuples(st.just("dup"), handle),
        st.tuples(st.just("share"), holder),
        st.tuples(st.just("close"), handle),
        st.tuples(st.just("exit"), holder),
        st.tuples(st.just("rename"), st.sampled_from(FILES), st.sampled_from(FILES)),
        st.tuples(st.just("mkdir"), st.sampled_from(DIRS)),
        st.tuples(st.just("rmdir"), st.sampled_from(DIRS)),
        st.tuples(
            st.just("write"), handle, st.binary(min_size=1, max_size=6),
            st.integers(min_value=0, max_value=8),
        ),
        st.tuples(st.just("read"), handle),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("fork")),
    ),
    min_size=6,
    max_size=40,
)


def fingerprint(machine):
    """Every linked inode's number, kind, links and contents."""
    return sorted(
        (
            node.ino,
            node.ftype.name,
            node.nlink,
            bytes(node.data),
            sorted(node.entries.items()),
            node.symlink_target,
        )
        for node in machine.fs._inodes.values()
    )


def exit_at_once(proc, args):
    return 0
    yield  # a program body is a generator


class World:
    """A machine, the host tasks that hold descriptions, and the model."""

    def __init__(self) -> None:
        self.machine = make_machine()
        self.root = self.machine.users.credentials_for("root")
        self.holders = [self.machine.host_task(self.root) for _ in range(HOLDERS)]
        #: (holder index, fd) of every descriptor ever handed out
        self.handles: list[tuple[int, int]] = []
        #: inode number -> the bytes a read through any description must see
        self.content: dict[int, bytes] = {}
        #: (snapshot, its fingerprint, its content model)
        self.snaps: list[tuple] = []
        self.admin = self.machine.host_task(self.root)
        self.kcall("mkdir", "/d", 0o755)
        for path in FILES:
            self.create(path, b"seed")

    def kcall(self, name, *args):
        return self.machine.kcall(self.admin, name, *args)

    def create(self, path, data) -> None:
        machine = self.machine
        try:
            machine.write_file(self.admin, path, data)
        except KernelError:
            return  # a directory in the way, or a missing parent
        ino = machine.vfs.resolve(path).require().ino
        self.content[ino] = bytes(data)

    def description(self, index):
        """The description behind handle ``index``, if its fd is still open."""
        if not self.handles:
            return None, None, None
        who, fd = self.handles[index % len(self.handles)]
        task = self.holders[who]
        try:
            return task, fd, task.fdtable.get(fd)
        except KernelError:
            return task, fd, None

    def fresh(self, task) -> bool:
        return task.fdtable.incarnation is self.machine.fs.incarnation

    def apply(self, step) -> None:
        kind, machine = step[0], self.machine
        if kind == "create":
            self.create(step[1], step[2])
        elif kind == "open":
            task = self.holders[step[1] % len(self.holders)]
            fd = machine.kcall(task, "open", step[2], OpenFlags.O_RDWR)
            if fd == -Errno.EISDIR:
                fd = machine.kcall(task, "open", step[2], OpenFlags.O_RDONLY)
            if fd >= 0:
                self.handles.append((self.holders.index(task), fd))
        elif kind == "dup":
            task, fd, of = self.description(step[1])
            if of is not None:
                new = machine.kcall(task, "dup", fd)
                if new >= 0:
                    self.handles.append((self.holders.index(task), new))
        elif kind == "share":
            # a forked child: the same descriptions through a second table
            if len(self.holders) < MAX_HOLDERS:
                parent = self.holders[step[1] % len(self.holders)]
                child = machine.host_task(self.root)
                child.fdtable = parent.fdtable.fork_copy()
                self.holders.append(child)
                index = len(self.holders) - 1
                self.handles += [(index, fd) for fd in child.fdtable.open_fds()]
        elif kind == "close":
            task, fd, of = self.description(step[1])
            if of is not None:
                machine.kcall(task, "close", fd)  # EBADF on a stale table
        elif kind == "exit":
            task = self.holders[step[1] % len(self.holders)]
            if self.fresh(task):
                # a process that owns the table runs and exits: the
                # kernel's exit path closes every descriptor
                machine.spawn(exit_at_once, cred=self.root, fdtable=task.fdtable)
                machine.run()
            else:
                # no process adopts a table of another world
                with pytest.raises(KernelError) as exc:
                    machine.spawn(exit_at_once, cred=self.root, fdtable=task.fdtable)
                assert exc.value.errno is Errno.EBADF
                task.fdtable.close_all()  # a stale agent torn down
        elif kind in ("unlink", "rmdir", "mkdir"):
            self.kcall(kind, *step[1:], *((0o755,) if kind == "mkdir" else ()))
        elif kind == "rename":
            self.kcall("rename", step[1], step[2])
        elif kind == "write":
            task, fd, of = self.description(step[1])
            data, at = step[2], step[3]
            if of is not None and machine.kcall(task, "pwrite_bytes", fd, data, at) > 0:
                old = self.content.get(of.inode.ino, b"").ljust(at, b"\0")
                self.content[of.inode.ino] = old[:at] + data + old[at + len(data) :]
        elif kind == "read":
            task, fd, of = self.description(step[1])
            if of is not None and of.inode.is_file and self.fresh(task):
                got = machine.kcall_x(task, "pread_bytes", fd, 64, 0)
                assert got == self.content[of.inode.ino]
        elif kind == "snapshot":
            self.snaps.append((machine.snapshot(), fingerprint(machine), dict(self.content)))
        elif kind == "restore":
            if self.snaps:
                snap, seen, content = self.snaps[step[1] % len(self.snaps)]
                machine.restore(snap)
                assert fingerprint(machine) == seen
                self.content = dict(content)
                self.admin = machine.host_task(self.root)
                # every table so far is stale now; one new holder is not
                self.holders.append(machine.host_task(self.root))
        elif kind == "fork":
            self.check_fork()

    def check_fork(self) -> None:
        """A forked world shares the files but none of the holds."""
        machine = self.machine
        seen = fingerprint(machine)
        child = machine.fork()
        assert fingerprint(child) == seen
        admin = child.host_task(self.root)
        assert child.fs._opens == {} and child.fs._orphans == {}
        for path in FILES:
            child.kcall(admin, "unlink", path)
        assert child.fs._orphans == {}
        assert fingerprint(machine) == seen
        child.close()

    def check(self) -> None:
        fs = self.machine.fs
        live = {
            id(of): of
            for task in self.holders
            if self.fresh(task)
            for of in task.fdtable._files.values()
            if of.fs is fs
        }
        held = Counter(of.inode.ino for of in live.values())
        assert fs._opens == dict(held)
        assert set(fs._orphans) == {ino for ino in held if ino not in fs._inodes}
        for of in live.values():
            node = fs.current(of.inode)
            assert node is fs._inodes.get(node.ino, fs._orphans.get(node.ino))
        fs.check_invariants()
        for snap, seen, _content in self.snaps:
            fork = self.machine.fork(snap)
            assert fingerprint(fork) == seen, "a snapshot's frozen inode changed"
            fork.close()


@settings(deadline=None, max_examples=150)
@given(steps)
# the last close of an unlinked file drops it
@example([("open", 0, "/f"), ("unlink", "/f"), ("close", 0)])
# a held file outlives its name and its snapshot stays frozen under writes
@example([("open", 0, "/f"), ("snapshot",), ("unlink", "/f"), ("write", 0, b"x", 0), ("read", 0)])
# a stale table torn down after a restore releases nothing in the rewound world
@example(
    [
        ("snapshot",), ("open", 0, "/f"), ("restore", 0), ("open", 2, "/f"),
        ("unlink", "/f"), ("exit", 0), ("write", 1, b"y", 1), ("read", 1),
    ]
)
# rename over a held file, rmdir of a held directory, exit of a shared table
@example(
    [
        ("mkdir", "/e"), ("open", 0, "/e"), ("create", "/g", b"g"), ("open", 1, "/g"),
        ("share", 1), ("rename", "/f", "/g"), ("rmdir", "/e"), ("exit", 1), ("read", 2),
        ("close", 0), ("exit", 2),
    ]
)
def test_an_unlinked_file_lives_exactly_as_long_as_its_holds(script):
    world = World()
    world.check()
    for step in script:
        world.apply(step)
        world.check()
