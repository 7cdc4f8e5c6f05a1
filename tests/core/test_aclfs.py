"""The ACL reference monitor over the VFS."""

import pytest

from repro.core.acl import ACL_FILE_NAME, Acl
from repro.core.aclfs import AclPolicy
from repro.core.rights import Rights
from repro.kernel.errno import Errno, KernelError
from tests.helpers import run_calls

FRED = "/O=X/CN=Fred"
GEORGE = "/O=X/CN=George"


@pytest.fixture
def policy(machine, alice_task):
    return AclPolicy(machine, alice_task)


@pytest.fixture
def shared(machine, alice_task, policy):
    """/home/alice/shared with Fred rwlxa and a wildcard rl entry."""
    machine.kcall_x(alice_task, "mkdir", "/home/alice/shared", 0o755)
    acl = Acl.for_owner(FRED)
    acl.set_entry("/O=X/*", Rights.parse("rl"))
    policy.write_acl("/home/alice/shared", acl)
    machine.write_file(alice_task, "/home/alice/shared/data.txt", b"hello")
    return "/home/alice/shared"


def test_acl_of_missing_is_none(policy):
    assert policy.acl_of("/home/alice") is None


def test_acl_write_read_roundtrip(policy, shared):
    acl = policy.acl_of(shared)
    assert acl is not None
    assert acl.rights_for(FRED).has_all("rwlxa")


def test_check_allows_by_acl(policy, shared):
    assert policy.check(FRED, f"{shared}/data.txt", "rw").allowed
    assert policy.check(GEORGE, f"{shared}/data.txt", "r").allowed


def test_check_denies_missing_right(policy, shared):
    decision = policy.check(GEORGE, f"{shared}/data.txt", "w")
    assert not decision.allowed
    assert "acl(" in decision.reason


def test_check_denies_unknown_identity(policy, shared):
    assert not policy.check("/O=Else/CN=Eve", f"{shared}/data.txt", "r").allowed


def test_require_raises_eacces(policy, shared):
    with pytest.raises(KernelError) as info:
        policy.require(GEORGE, f"{shared}/data.txt", "w")
    assert info.value.errno is Errno.EACCES


def test_nobody_fallback_denies_private_file(machine, alice_task, policy):
    machine.write_file(alice_task, "/home/alice/secret", b"x", mode=0o600)
    decision = policy.check(FRED, "/home/alice/secret", "r")
    assert not decision.allowed
    assert decision.reason == "unix-fallback-as-nobody"


def test_nobody_fallback_allows_world_readable(machine, alice_task, policy):
    machine.write_file(alice_task, "/home/alice/public", b"x", mode=0o644)
    assert policy.check(FRED, "/home/alice/public", "r").allowed


def test_nobody_fallback_never_grants_admin_or_reserve(machine, alice_task, policy):
    machine.kcall_x(alice_task, "mkdir", "/home/alice/open", 0o777)
    assert not policy.check(FRED, "/home/alice/open", "a").allowed
    assert not policy.check(FRED, "/home/alice/open", "v").allowed


def test_dir_own_acl_governs_listing(policy, shared):
    assert policy.check(GEORGE, shared, "l").allowed
    assert not policy.check(GEORGE, shared, "w").allowed


def test_parent_scope_for_namespace_mutation(machine, alice_task, policy, shared):
    # removing `sub` is governed by `shared`'s ACL under parent scope
    machine.kcall_x(alice_task, "mkdir", f"{shared}/sub", 0o755)
    assert policy.check(FRED, f"{shared}/sub", "w", scope="parent").allowed
    assert not policy.check(GEORGE, f"{shared}/sub", "w", scope="parent").allowed


# -- symlinks: the "indirect paths" pitfall (§6) --------------------------------- #


def test_symlink_checked_against_target_directory(machine, alice_task, policy, shared):
    # a link in an open directory pointing into the protected one
    machine.kcall_x(alice_task, "mkdir", "/home/alice/open", 0o777)
    policy.write_acl("/home/alice/open", Acl.for_owner(GEORGE))
    machine.kcall_x(
        alice_task, "symlink", f"{shared}/data.txt", "/home/alice/open/alias"
    )
    # George holds rwlxa on /open but only rl on /shared: write via the
    # alias must be judged by the *target's* ACL
    assert not policy.check(GEORGE, "/home/alice/open/alias", "w").allowed
    assert policy.check(GEORGE, "/home/alice/open/alias", "r").allowed


def test_nofollow_checks_link_itself(machine, alice_task, policy, shared):
    machine.kcall_x(alice_task, "mkdir", "/home/alice/open", 0o777)
    policy.write_acl("/home/alice/open", Acl.for_owner(GEORGE))
    machine.kcall_x(
        alice_task, "symlink", f"{shared}/data.txt", "/home/alice/open/alias"
    )
    # lstat-style access is governed by the link's own directory
    assert policy.check(GEORGE, "/home/alice/open/alias", "l", follow=False).allowed


# -- hard links ------------------------------------------------------------ #


def test_hard_link_requires_read_on_target(machine, alice_task, policy, shared):
    machine.kcall_x(alice_task, "mkdir", "/home/alice/mine", 0o777)
    policy.write_acl("/home/alice/mine", Acl.for_owner("/O=Else/CN=Eve"))
    with pytest.raises(KernelError) as info:
        policy.check_hard_link(
            "/O=Else/CN=Eve", f"{shared}/data.txt", "/home/alice/mine/sneaky"
        )
    assert info.value.errno is Errno.EACCES


def test_hard_link_allowed_with_rights(policy, shared, machine, alice_task):
    policy.check_hard_link(FRED, f"{shared}/data.txt", f"{shared}/second")


def test_hard_link_requires_write_in_destination(policy, shared):
    with pytest.raises(KernelError):
        # George can read the target but holds no w anywhere
        policy.check_hard_link(GEORGE, f"{shared}/data.txt", f"{shared}/copy")


# -- mkdir: inheritance and reserve ------------------------------------------ #


def test_mkdir_with_w_inherits_parent_acl(policy, shared):
    res, acl = policy.plan_mkdir(FRED, f"{shared}/newdir")
    assert not res.exists
    assert acl.rights_for(GEORGE).has_all("rl")  # inherited wildcard entry
    assert acl.rights_for(FRED).has_all("rwlxa")


def test_mkdir_with_reserve_gets_fresh_acl(machine, alice_task, policy):
    machine.kcall_x(alice_task, "mkdir", "/home/alice/pub", 0o755)
    acl = Acl()
    acl.set_entry("/O=X/*", Rights.parse("v(rwlax)"))
    policy.write_acl("/home/alice/pub", acl)
    _res, new_acl = policy.plan_mkdir(FRED, "/home/alice/pub/work")
    assert new_acl.subjects() == [FRED]
    assert new_acl.rights_for(FRED).has_all("rwlxa")
    assert new_acl.rights_for(GEORGE).is_empty


def test_mkdir_reserve_grants_only_parenthesized(machine, alice_task, policy):
    machine.kcall_x(alice_task, "mkdir", "/home/alice/pub", 0o755)
    acl = Acl()
    acl.set_entry(FRED, Rights.parse("v(rl)"))
    policy.write_acl("/home/alice/pub", acl)
    _res, new_acl = policy.plan_mkdir(FRED, "/home/alice/pub/d")
    assert str(new_acl.rights_for(FRED)) == "rl"


def test_mkdir_without_w_or_v_denied(machine, alice_task, policy, shared):
    with pytest.raises(KernelError) as info:
        policy.plan_mkdir(GEORGE, f"{shared}/blocked")
    assert info.value.errno is Errno.EACCES


def test_mkdir_existing_is_eexist(policy, shared, machine, alice_task):
    machine.kcall_x(alice_task, "mkdir", f"{shared}/sub", 0o755)
    with pytest.raises(KernelError) as info:
        policy.plan_mkdir(FRED, f"{shared}/sub")
    assert info.value.errno is Errno.EEXIST


def test_mkdir_in_unacled_world_writable_starts_fresh_domain(
    machine, alice_task, policy
):
    _res, acl = policy.plan_mkdir(FRED, "/tmp/fredspace")
    assert acl.rights_for(FRED).has_all("rwlxa")


# -- rmdir: parent w OR own w --------------------------------------------------- #


def test_remove_dir_by_parent_right(policy, shared, machine, alice_task):
    machine.kcall_x(alice_task, "mkdir", f"{shared}/sub", 0o755)
    assert policy.check_remove_dir(FRED, f"{shared}/sub").allowed


def test_remove_dir_by_own_right(machine, alice_task, policy):
    # reserve-created directory: w inside, nothing in the parent
    machine.kcall_x(alice_task, "mkdir", "/home/alice/pub", 0o755)
    parent_acl = Acl()
    parent_acl.set_entry(FRED, Rights.parse("v(rwlax)"))
    policy.write_acl("/home/alice/pub", parent_acl)
    machine.kcall_x(alice_task, "mkdir", "/home/alice/pub/work", 0o755)
    policy.write_acl("/home/alice/pub/work", Acl.for_owner(FRED))
    assert policy.check_remove_dir(FRED, "/home/alice/pub/work").allowed
    assert not policy.check_remove_dir(GEORGE, "/home/alice/pub/work").allowed


# -- administration ---------------------------------------------------------- #


def test_require_admin(policy, shared):
    policy.require_admin(FRED, shared)
    with pytest.raises(KernelError):
        policy.require_admin(GEORGE, shared)


def test_require_admin_without_acl_denied(policy):
    with pytest.raises(KernelError):
        policy.require_admin(FRED, "/home/alice")


# -- caching ------------------------------------------------------------ #


def test_cache_avoids_reread_cost(machine, alice_task, shared):
    policy = AclPolicy(machine, alice_task, cache_enabled=True)
    policy.acl_of(shared)
    before = machine.clock.now_ns
    policy.acl_of(shared)
    assert machine.clock.now_ns == before  # cache hit: free


def test_cache_disabled_rereads(machine, alice_task, shared):
    policy = AclPolicy(machine, alice_task, cache_enabled=False)
    policy.acl_of(shared)
    before = machine.clock.now_ns
    policy.acl_of(shared)
    assert machine.clock.now_ns > before


def test_write_acl_invalidates_cache(policy, shared):
    assert policy.acl_of(shared).rights_for(GEORGE).has("r")
    acl = policy.acl_of(shared).copy()
    acl.set_entry("/O=X/*", Rights.none())
    policy.write_acl(shared, acl)
    assert not policy.acl_of(shared).rights_for(GEORGE).has("r")


def count_acl_reads(monkeypatch, machine):
    """Record every ``.__acl`` file read from now on."""
    reads = []
    read_file = machine.read_file

    def counting(task, path):
        if path.endswith("/" + ACL_FILE_NAME):
            reads.append(path)
        return read_file(task, path)

    monkeypatch.setattr(machine, "read_file", counting)
    return reads


def test_mkdir_then_check_in_it_reads_no_acl(monkeypatch, machine, alice_task, policy, shared):
    reads = count_acl_reads(monkeypatch, machine)
    _res, acl = policy.plan_mkdir(FRED, f"{shared}/new")
    machine.kcall_x(alice_task, "mkdir", f"{shared}/new", 0o755)
    policy.apply_mkdir(f"{shared}/new", acl)
    assert policy.check(FRED, f"{shared}/new/f", "w").allowed
    assert not policy.check(GEORGE, f"{shared}/new/f", "w").allowed
    assert reads == []  # write-through: the installed ACL is already cached


def test_rename_keeps_the_moved_directory_cached(monkeypatch, machine, alice_task, policy, shared):
    assert policy.check(GEORGE, f"{shared}/data.txt", "r").allowed
    reads = count_acl_reads(monkeypatch, machine)
    machine.kcall_x(alice_task, "rename", shared, "/home/alice/moved")
    # the ACL moved with the directory's inode: nothing to invalidate
    assert policy.check(GEORGE, "/home/alice/moved/data.txt", "r").allowed
    assert not policy.check(GEORGE, "/home/alice/moved/data.txt", "w").allowed
    assert reads == []


def test_restore_empties_the_cache(machine, policy, shared):
    snap = machine.snapshot()
    policy.write_acl(shared, Acl.for_owner(GEORGE))
    assert policy.acl_of(shared).subjects() == [GEORGE]
    machine.restore(snap)  # rewinds the ACL file and inode allocation
    assert policy.acl_of(shared).rights_for(FRED).has_all("rwlxa")


def test_a_policy_without_cache_reads_and_writes_across_a_restore(
    machine, alice_task, shared
):
    policy = AclPolicy(machine, alice_task, cache_enabled=False)
    snap = machine.snapshot()
    policy.write_acl(shared, Acl.for_owner(GEORGE))
    machine.restore(snap)  # the owner's table now belongs to the old world
    assert policy.acl_of(shared).rights_for(FRED).has_all("rwlxa")
    policy.write_acl(shared, Acl.for_owner(GEORGE))
    assert policy.acl_of(shared).subjects() == [GEORGE]


def test_mkdir_rmdir_cycles_keep_the_cache_bounded(machine, box):
    calls = []
    for i in range(5000):
        calls += [("mkdir", f"d{i}"), ("rmdir", f"d{i}")]
    # a rename over an empty directory kills the replaced one
    calls += [("mkdir", "x"), ("mkdir", "y"), ("rename", "x", "y")]
    assert set(run_calls(calls, machine=machine, box=box)) == {0}
    live = [node.ino for node in machine.fs._inodes.values() if node.is_dir]
    assert set(box.policy._cache) <= set(live)


def test_exists_helper(policy, shared):
    assert policy.exists(f"{shared}/data.txt")
    assert not policy.exists(f"{shared}/ghost")
    assert not policy.exists("/no/such/dir/file")


def test_acl_file_name_is_dotfile():
    assert ACL_FILE_NAME.startswith(".")
