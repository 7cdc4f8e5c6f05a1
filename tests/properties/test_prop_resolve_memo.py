"""Differential property test: the resolver's generation-keyed memo.

``VFS.resolve`` remembers its successful walks for one
``LocalFS.generation``, keyed by the absolute path, the walking
credentials and ``follow``, and answers a hit with the live incarnations
of the remembered inode numbers.  Hypothesis interleaves mutations (mkdir,
rmdir, rename, unlink, symlink retargets, chmod of an intermediate
directory that takes ``x`` away from one of two users, chown,
``write_file``, data-only ``pwrite``/``ftruncate``/``read`` through an
open descriptor, snapshot plus restore, a snapshot followed by a write
that CoW-clones a remembered inode, and fork) with resolutions through the
machine's own resolver, over both users, ``follow`` and
``check_traverse``.  Each answer must equal a walk by a fresh resolver
with nothing memoized: the same live inode objects, parent, name,
``dir_path`` and walk statistics, or the same errno.

Most mutations go straight to the ``LocalFS``, so the memo entries left
by earlier resolutions survive into the next one.  After every step each
query asked so far is asked again, as both users: what a stale or
under-keyed entry would answer wrongly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.box import IdentityBox
from repro.kernel.errno import KernelError
from repro.kernel.fdtable import OpenFlags
from repro.kernel.vfs import MEMO_ENTRIES, VFS
from tests.helpers import make_machine, run_calls

ROOT = "/w"
DIRS = ("/w/a", "/w/b", "/w/a/c")
#: where entries are made, removed and renamed
PATHS = ("/w/a", "/w/b", "/w/a/c", "/w/a/f", "/w/b/f", "/w/a/c/f", "/w/s", "/w/a/s")
LINKS = ("/w/s", "/w/a/s")
TARGETS = ("a", "/w/a/c", "c/f", "..", "s", "/missing", "f")
QUERIES = PATHS + (
    "/w", "/w/s/f", "/w/s/c", "/w/a/s/f", "/w/a/../b/f", "/w/a/c/..", "a/c/f", "s/c",
)
#: owner alice, group alice: 0o750 and 0o700 take x away from bob only
MODES = (0o755, 0o750, 0o700, 0o711, 0o644)
#: descriptor ops that change a file's bytes or times, never the namespace
DATA_OPS = ("pwrite", "ftruncate", "read")

paths = st.sampled_from(PATHS)
#: the directories whose mode and owner decide who may traverse
dirs = st.sampled_from((ROOT,) + DIRS)
mutations = st.one_of(
    st.tuples(st.just("mkdir"), paths),
    st.tuples(st.just("rmdir"), paths),
    st.tuples(st.just("rename"), paths, paths),
    st.tuples(st.just("unlink"), paths),
    st.tuples(st.just("retarget"), st.sampled_from(LINKS), st.sampled_from(TARGETS)),
    st.tuples(st.just("chmod"), dirs, st.sampled_from(MODES)),
    st.tuples(st.just("chown"), dirs, st.sampled_from(("alice", "bob"))),
    st.tuples(st.just("write_file"), paths),
    st.tuples(st.just("data"), st.sampled_from(DATA_OPS), paths),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("snapshot_write"), paths),
    st.tuples(st.just("restore")),
    st.tuples(st.just("fork")),
)
queries = st.tuples(st.just("resolve"), st.sampled_from(QUERIES), st.booleans(), st.booleans())
#: as many queries as mutations, so most mutations land on remembered walks
steps = st.lists(st.one_of(mutations, queries), max_size=50)


def world():
    machine = make_machine()
    alice = machine.add_user("alice")
    machine.add_user("bob")
    task = machine.host_task(alice)
    root = machine.host_task(machine.users.credentials_for("root"))
    for path in (ROOT,) + DIRS:
        machine.kcall_x(root, "mkdir", path, 0o755)
        machine.kcall_x(root, "chown", path, alice.uid, alice.gid)
    # only its owner may cross /w/a/c, so a chown alone moves that right
    machine.kcall_x(root, "chmod", "/w/a/c", 0o750)
    machine.write_file(task, "/w/a/f", b"f")
    machine.write_file(task, "/w/a/c/f", b"f")
    machine.kcall_x(task, "symlink", "a", "/w/s")
    return machine


def locate(machine, path):
    """``(parent, name, node)`` of ``path`` by a fresh, unchecked walk."""
    res = VFS(machine.fs).resolve(path, follow=False, check_traverse=False)
    return res.parent, res.name, res.inode


def mutate(machine, step):
    """Apply one mutation; straight to the LocalFS unless it needs the kernel."""
    fs, kind = machine.fs, step[0]
    if kind == "write_file":
        root = machine.host_task(machine.users.credentials_for("root"))
        machine.write_file(root, step[1], b"data")
        return
    if kind == "data":
        data_op(machine, step[1], step[2])
        return
    parent, name, node = locate(machine, step[1])
    if node is None and kind in ("chmod", "chown"):
        return
    if kind == "mkdir":
        fs.mkdir(parent, name, 0, 0)
    elif kind == "rmdir":
        fs.rmdir(parent, name)
    elif kind == "unlink":
        fs.unlink(parent, name)
    elif kind == "rename":
        dst_parent, dst_name, _ = locate(machine, step[2])
        fs.rename(parent, name, dst_parent, dst_name)
    elif kind == "retarget":
        if node is not None:
            fs.unlink(parent, name)
        fs.symlink(parent, name, step[2], 0, 0)
    elif kind == "chmod":
        fs.set_mode(node, step[2])
    else:  # chown
        cred = machine.users.credentials_for(step[2])
        fs.set_owner(node, cred.uid, cred.gid)


def data_op(machine, op, path):
    """One data-only call through a descriptor open on ``path``."""
    root = machine.host_task(machine.users.credentials_for("root"))
    fd = machine.kcall_x(root, "open", path, OpenFlags.O_RDWR)
    try:
        if op == "pwrite":
            machine.kcall_x(root, "pwrite_bytes", fd, b"more", 2)
        elif op == "ftruncate":
            machine.kcall_x(root, "ftruncate", fd, 1)
        else:  # a read stamps the inode's access time
            machine.kcall_x(root, "read_bytes", fd, 8)
    finally:
        machine.kcall_x(root, "close", fd)


def check(machine, query, user, seen_stats):
    """Ask ``query`` of the machine's resolver and of a fresh one."""
    path, follow, traverse = query
    cred = machine.users.credentials_for(user)
    got, res = answer(machine.vfs, cred, path, follow, traverse)
    want, _ = answer(VFS(machine.fs), cred, path, follow, traverse)
    assert got == want, (query, user)
    if res is not None:
        # every answer carries its own stats: a caller may keep them
        assert id(res.stats) not in seen_stats
        seen_stats[id(res.stats)] = res.stats


def answer(vfs, cred, path, follow, traverse):
    """A resolution as comparable facts: identities, names, counts or errno."""
    try:
        res = vfs.resolve(path, cred, cwd=ROOT, follow=follow, check_traverse=traverse)
    except KernelError as exc:
        return exc.errno, None
    facts = (
        None if res.inode is None else id(res.inode),
        id(res.parent),
        res.name,
        res.dir_path,
        res.stats.components,
        res.stats.symlinks,
    )
    return facts, res


@settings(max_examples=600, deadline=None)
@given(steps)
def test_memoized_resolution_equals_a_fresh_walk(script):
    machine = world()
    snap = None
    asked = {}  # every query so far, in order; the memo may hold them all
    seen_stats = {}
    for step in script:
        kind = step[0]
        if kind == "snapshot":
            snap = machine.snapshot()
        elif kind == "snapshot_write":
            # the write's CoW clone replaces an inode the memo may hold
            snap = machine.snapshot()
            try:
                data_op(machine, "pwrite", step[1])
            except KernelError:
                pass
        elif kind == "restore":
            if snap is not None:
                machine.restore(snap)
        elif kind == "fork":
            machine = machine.fork(snap)
        elif kind == "resolve":
            asked[step[1:]] = None
        else:
            try:
                mutate(machine, step)
            except KernelError:
                pass  # the kernel refused; nothing changed
        for query in asked:
            check(machine, query, "alice", seen_stats)
            check(machine, query, "bob", seen_stats)


def test_a_boxed_stat_walks_its_path_once(machine, alice):
    """Within one namespace generation each path is walked once: the
    monitor's and the kernel's resolutions, and every repeat, share it.
    Data-only writes keep the walk; a chmod of an ancestor does not."""
    box = IdentityBox(machine, alice, "Visitor")
    setup = [("mkdir", "d", 0o755), ("mkdir", "e", 0o755), ("mkdir", "d/g", 0o755)]
    run_calls(setup + [("open", "f", OpenFlags.O_CREAT)], machine=machine, box=box)
    vfs = machine.vfs
    walk, walked = vfs._walk, []

    def counting_walk(path, *args):
        walked.append(path.rsplit("/", 2)[-2:])
        return walk(path, *args)

    vfs._walk = counting_walk
    results = run_calls([("stat", "d"), ("stat", "e")] * 5, machine=machine, box=box)
    assert all(r.is_dir for r in results)
    assert walked.count(["Visitor", "d"]) == 1
    assert walked.count(["Visitor", "e"]) == 1

    results, owner = [], machine.host_task(alice)

    def body(proc, args):
        fd = yield proc.sys.open("f", OpenFlags.O_RDWR)
        addr = proc.alloc_bytes(b"data")
        for _ in range(3):
            results.append((yield proc.sys.stat("d/g")))
            results.append((yield proc.sys.pwrite(fd, addr, 4, 0)))
            results.append((yield proc.sys.ftruncate(fd, 1)))
        # the box's owner re-modes g's parent mid-run; a new mode may
        # revoke the traverse bit, so the next stat walks again
        machine.kcall_x(owner, "chmod", box.home + "/d", 0o755)
        results.append((yield proc.sys.stat("d/g")))
        yield proc.sys.close(fd)
        return 0

    box.spawn(body)
    machine.run()
    assert all(r.is_dir for r in results[0:9:3] + results[-1:])
    assert results[1:9:3] == [4, 4, 4] and results[2:9:3] == [0, 0, 0]
    assert walked.count(["d", "g"]) == 2


def test_the_memo_never_outgrows_its_cap():
    """More distinct paths than the cap in one generation: the memo starts
    over instead of growing, and still answers like a fresh walk."""
    machine = make_machine()
    vfs, fs = machine.vfs, machine.fs
    generation = fs.generation
    paths = [f"/tmp/n{i}" for i in range(MEMO_ENTRIES + 50)]
    for path in paths:
        vfs.resolve(path)
        assert len(vfs._memo) <= MEMO_ENTRIES
    assert fs.generation == generation
    for path in (paths[0], paths[-1], "/tmp"):
        got, want = vfs.resolve(path), VFS(fs).resolve(path)
        assert (got.inode, got.parent, got.name, got.dir_path) == (
            want.inode, want.parent, want.name, want.dir_path
        )
