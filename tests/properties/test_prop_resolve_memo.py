"""Differential property test: the resolver's one-entry memo.

``VFS.resolve`` remembers its last successful walk, keyed by the absolute
path, the walking credentials, ``follow`` and ``LocalFS.generation``.
Hypothesis interleaves mutations (mkdir, rmdir, rename, unlink, symlink
retargets, chmod of an intermediate directory that takes ``x`` away from
one of two users, chown, ``write_file``, snapshot plus restore, and fork)
with resolutions through the machine's own resolver, over both users,
``follow`` and ``check_traverse``.  Each answer must equal a walk by a
fresh resolver with nothing memoized: the same live inode objects, parent,
name, ``dir_path`` and walk statistics, or the same errno.

Most mutations go straight to the ``LocalFS``, so the memo entry left by
the previous resolution survives into the next one.  After every step the
last resolution is asked again, as its own user and then as the other:
what a stale or under-keyed entry would answer wrongly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.box import IdentityBox
from repro.kernel.errno import KernelError
from repro.kernel.vfs import VFS
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

paths = st.sampled_from(PATHS)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("mkdir"), paths),
        st.tuples(st.just("rmdir"), paths),
        st.tuples(st.just("rename"), paths, paths),
        st.tuples(st.just("unlink"), paths),
        st.tuples(st.just("retarget"), st.sampled_from(LINKS), st.sampled_from(TARGETS)),
        st.tuples(st.just("chmod"), st.sampled_from((ROOT,) + DIRS), st.sampled_from(MODES)),
        st.tuples(st.just("chown"), paths, st.sampled_from(("alice", "bob"))),
        st.tuples(st.just("write_file"), paths),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("fork")),
        st.tuples(
            st.just("resolve"),
            st.sampled_from(QUERIES),
            st.sampled_from(("alice", "bob")),
            st.booleans(),
            st.booleans(),
        ),
    ),
    max_size=50,
)


def world():
    machine = make_machine()
    alice = machine.add_user("alice")
    machine.add_user("bob")
    task = machine.host_task(alice)
    root = machine.host_task(machine.users.credentials_for("root"))
    for path in (ROOT,) + DIRS:
        machine.kcall_x(root, "mkdir", path, 0o755)
        machine.kcall_x(root, "chown", path, alice.uid, alice.gid)
    machine.write_file(task, "/w/a/f", b"f")
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


def check(machine, query, seen_stats):
    """Ask ``query`` of the machine's resolver and of a fresh one."""
    path, user, follow, traverse = query
    cred = machine.users.credentials_for(user)
    got, res = answer(machine.vfs, cred, path, follow, traverse)
    want, _ = answer(VFS(machine.fs), cred, path, follow, traverse)
    assert got == want, query
    if res is not None:
        # every answer carries its own stats: a caller may keep them
        assert all(res.stats is not s for s in seen_stats)
        seen_stats.append(res.stats)


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


@settings(max_examples=300, deadline=None)
@given(steps)
def test_memoized_resolution_equals_a_fresh_walk(script):
    machine = world()
    snap = None
    last = None
    seen_stats = []
    for step in script:
        kind = step[0]
        if kind == "snapshot":
            snap = machine.snapshot()
        elif kind == "restore":
            if snap is not None:
                machine.restore(snap)
        elif kind == "fork":
            machine = machine.fork(snap)
        elif kind == "resolve":
            last = step[1:]
        else:
            try:
                mutate(machine, step)
            except KernelError:
                pass  # the kernel refused; nothing changed
        if last is not None:
            other = "bob" if last[1] == "alice" else "alice"
            check(machine, last, seen_stats)
            check(machine, (last[0], other) + last[2:], seen_stats)


def test_a_boxed_stat_walks_its_path_once(machine, alice):
    """The reference monitor's resolution is the kernel's next one."""
    box = IdentityBox(machine, alice, "Visitor")
    run_calls([("mkdir", "d", 0o755), ("mkdir", "e", 0o755)], machine=machine, box=box)
    vfs = machine.vfs
    walk, counts = vfs._walk, {"resolve": 0, "walk": 0}

    def counting_walk(*args):
        counts["walk"] += 1
        return walk(*args)

    resolve = vfs.resolve

    def counting_resolve(*args, **kwargs):
        counts["resolve"] += 1
        return resolve(*args, **kwargs)

    vfs._walk, vfs.resolve = counting_walk, counting_resolve
    results = run_calls([("stat", "d"), ("stat", "e")] * 5, machine=machine, box=box)
    assert all(r.is_dir for r in results)
    # each stat resolves its path twice, monitor then kernel, and the
    # kernel's resolution reuses the monitor's walk
    assert counts["resolve"] - counts["walk"] == 10
