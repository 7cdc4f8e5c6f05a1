"""Differential property test: the inode-keyed ACL cache against no cache.

Hypothesis interleaves namespace changes (``mkdir`` and ``rmdir``,
re-creating removed names; file and directory renames, across parents,
over an empty directory and into their own subtree, which the kernel
refuses with EINVAL), ACL edits (``setacl`` and ``write_acl``, through
the real path or a symlink alias) and queries (``check``, ``plan_mkdir``
and ``acl_of``, through either name).  Every mutation goes through a
cached :class:`AclPolicy` and the same hooks the handlers call; every
query goes to it and to a ``cache_enabled=False`` policy on the same
machine, which rereads ``.__acl`` each time.  The two must agree on every
decision, every error and every rendered ACL, the cache may only hold
entries for live directories, and every directory stays reachable.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.acl import Acl
from repro.core.aclfs import AclPolicy
from repro.core.ops import (
    acl_dir_for,
    apply_setacl,
    rename_clearing_acl,
    rmdir_clearing_acl,
)
from repro.core.rights import Rights
from repro.interpose.drivers import LocalDriver
from repro.kernel.errno import KernelError
from tests.helpers import make_machine

FRED = "/O=X/CN=Fred"
GEORGE = "/O=X/CN=George"
ROOT = "/home/alice/w"
#: a symlink to ROOT, so every path below has a second name
ALIAS = "/home/alice/l"
#: ``s`` is a symlink to ``a`` inside ROOT: it dangles while ``a`` is gone
NAMES = ("a", "b", "c", "a/a", "a/b", "b/a", "b/b", "a/a/a", "s", "s/a", "s/b", "f", "a/f")

bases = st.sampled_from((ROOT, ALIAS))
paths = st.builds(lambda base, name: f"{base}/{name}", bases, st.sampled_from(NAMES))
dirs = st.one_of(bases, paths)  # queries may also name ROOT itself
identities = st.sampled_from((FRED, GEORGE))
subjects = st.sampled_from((FRED, GEORGE, "/O=X/*"))
rights = st.sampled_from(("rwlax", "rwl", "rl", "l", "v(rwla)", "-"))

steps = st.lists(
    st.one_of(
        st.tuples(st.just("mkdir"), identities, paths),
        st.tuples(st.just("rmdir"), paths),
        st.tuples(st.just("rename"), paths, paths),
        st.tuples(st.just("touch"), paths),
        st.tuples(st.just("setacl"), dirs, subjects, rights),
        st.tuples(st.just("write_acl"), dirs, subjects, rights),
        st.tuples(
            st.just("check"),
            identities,
            dirs,
            st.sampled_from(("r", "w", "l", "a", "x", "rw", "v")),
            st.sampled_from(("auto", "parent")),
            st.booleans(),
        ),
        st.tuples(st.just("plan_mkdir"), identities, paths),
        st.tuples(st.just("acl_of"), dirs),
    ),
    max_size=40,
)


def outcome(fn):
    try:
        return fn()
    except KernelError as exc:
        return exc.errno


def decision(policy, identity, path, letters, scope, follow):
    d = policy.check(identity, path, letters, scope=scope, follow=follow)
    return d.allowed, d.reason


def rendered(policy, path):
    acl = policy.acl_of(path)
    return None if acl is None else acl.render()


def planned(policy, identity, path):
    res, acl = policy.plan_mkdir(identity, path)
    return res.dir_path, res.name, acl.render()


def assert_tree(machine):
    """Every live directory's parent chain ends at the root (no rename
    detached a directory into a cycle of its own)."""
    fs = machine.fs
    for node in list(fs._inodes.values()):
        steps = 0
        while node.is_dir and node.ino != fs.root.ino:
            node = fs.parent_of(node)
            steps += 1
            assert steps < 64, "directory detached from the root"


def world():
    machine = make_machine()
    alice = machine.add_user("alice")
    task = machine.host_task(alice)
    cached = AclPolicy(machine, task)
    plain = AclPolicy(machine, machine.host_task(alice), cache_enabled=False)
    machine.kcall_x(task, "mkdir", ROOT, 0o755)
    acl = Acl.for_owner(FRED)
    acl.set_entry("/O=X/*", Rights.parse("rlv(rwla)"))
    cached.write_acl(ROOT, acl)
    machine.kcall_x(task, "symlink", ROOT, ALIAS)
    machine.kcall_x(task, "symlink", f"{ROOT}/a", f"{ROOT}/s")
    return machine, task, cached, plain


def mutate(machine, task, cached, step):
    """Apply one mutation the way the handlers do, through ``cached``."""
    driver = LocalDriver(machine, task)
    kind = step[0]
    if kind == "mkdir":
        _, identity, path = step
        _res, acl = cached.plan_mkdir(identity, path)
        driver.mkdir(path, 0o755)
        cached.apply_mkdir(path, acl)
    elif kind == "rmdir":
        cached.invalidate(step[1])
        rmdir_clearing_acl(driver, step[1])
    elif kind == "rename":
        _, old, new = step
        cached.invalidate(new)
        rename_clearing_acl(driver, old, new)
    elif kind == "touch":
        machine.write_file(task, step[1], b"x")
    elif kind == "setacl":
        _, path, subject, text = step
        apply_setacl(cached, acl_dir_for(driver, path), subject, text)
    else:  # write_acl
        _, path, subject, text = step
        acl = Acl()
        acl.set_entry(subject, Rights.parse(text))
        cached.write_acl(path, acl)


@settings(max_examples=200, deadline=None)
@given(steps)
@example([("mkdir", FRED, f"{ROOT}/a"), ("rename", f"{ROOT}/a", f"{ROOT}/a/a")])
def test_cached_policy_agrees_with_an_uncached_one(script):
    machine, task, cached, plain = world()
    for step in script:
        kind = step[0]
        if kind == "check":
            args = step[1:]
            want = outcome(lambda: decision(plain, *args))
            assert outcome(lambda: decision(cached, *args)) == want, step
        elif kind == "plan_mkdir":
            args = step[1:]
            want = outcome(lambda: planned(plain, *args))
            assert outcome(lambda: planned(cached, *args)) == want, step
        elif kind == "acl_of":
            want = outcome(lambda: rendered(plain, step[1]))
            assert outcome(lambda: rendered(cached, step[1])) == want, step
        else:
            outcome(lambda: mutate(machine, task, cached, step))
            assert_tree(machine)
        # only live directories have entries
        for ino in cached._cache:
            node = machine.fs._inodes.get(ino)
            assert node is not None and node.is_dir, (step, ino)
