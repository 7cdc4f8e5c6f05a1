"""The identity box public API: homes, identity, containment basics."""

import pytest

from repro.core.acl import ACL_FILE_NAME
from repro.core.box import IdentityBox, identity_box_run
from repro.core.identity import IdentityError
from repro.kernel import Errno, OpenFlags, Signal
from tests.helpers import boxed_read_file, boxed_write_file, run_calls


def test_box_creates_home_with_owner_acl(box):
    assert box.home == "/tmp/boxes/Visitor"
    acl = box.policy.acl_of(box.home)
    assert acl.rights_for("Visitor").has_all("rwlxa")


def test_box_creates_private_passwd(box, machine):
    text = machine.read_file(box.owner_task, box.passwd_path).decode()
    assert text.splitlines()[0].startswith("Visitor:x:")


def test_get_user_name_returns_identity(machine, box):
    results = run_calls([("get_user_name",)], machine=machine, box=box)
    assert results == ["Visitor"]


def test_get_user_name_outside_box_returns_unix_name(machine, alice):
    results = run_calls([("get_user_name",)], machine=machine, cred=alice)
    assert results == ["alice"]


def test_visitor_works_in_home(machine, box):
    assert boxed_write_file(box, "notes.txt", b"mine") == 4
    assert boxed_read_file(box, "notes.txt") == b"mine"


def test_visitor_denied_outside_home(machine, alice, alice_task, box):
    machine.write_file(alice_task, "/home/alice/secret", b"s", mode=0o600)
    assert boxed_read_file(box, "/home/alice/secret") == -Errno.EACCES


def test_same_identity_returns_to_same_home(machine, alice):
    box1 = IdentityBox(machine, alice, "Freddy")
    boxed_write_file(box1, "keep.txt", b"persistent")
    box2 = IdentityBox(machine, alice, "Freddy")
    assert box2.home == box1.home
    assert boxed_read_file(box2, "keep.txt") == b"persistent"


def test_different_identities_get_distinct_homes(machine, alice):
    a = IdentityBox(machine, alice, "UserA")
    b = IdentityBox(machine, alice, "UserB")
    assert a.home != b.home
    boxed_write_file(a, "private", b"a's data")
    assert boxed_read_file(b, a.home + "/private") == -Errno.EACCES


def test_shared_supervisor_hosts_many_identities(machine, alice):
    a = IdentityBox(machine, alice, "UserA")
    b = IdentityBox(machine, alice, "UserB", supervisor=a.supervisor)
    assert a.supervisor is b.supervisor
    boxed_write_file(a, "fa", b"1")
    boxed_write_file(b, "fb", b"2")
    assert boxed_read_file(b, a.home + "/fa") == -Errno.EACCES


def test_principal_identities_are_valid_box_names(machine, alice):
    box = IdentityBox(machine, alice, "globus:/O=UnivNowhere/CN=Fred")
    assert boxed_write_file(box, "x", b"ok") == 2


def test_invalid_identity_rejected(machine, alice):
    with pytest.raises(IdentityError):
        IdentityBox(machine, alice, "has spaces")


def test_whoami_flow_reports_identity(machine, box):
    def body(proc, args):
        uid = yield proc.sys.getuid()
        fd = yield proc.sys.open("/etc/passwd", OpenFlags.O_RDONLY)
        buf = proc.alloc(65536)
        n = yield proc.sys.read(fd, buf, 65536)
        yield proc.sys.close(fd)
        from repro.core.passwd import lookup_name_by_uid

        proc.scratch["whoami"] = lookup_name_by_uid(
            proc.read_buffer(buf, n).decode(), uid
        )
        return 0

    proc = box.spawn(body)
    machine.run()
    assert proc.context.scratch["whoami"] == "Visitor"


def test_acl_file_hidden_from_listing(machine, box):
    boxed_write_file(box, "visible", b"x")
    results = run_calls([("readdir", ".")], machine=machine, box=box)
    assert "visible" in results[0]
    assert ACL_FILE_NAME not in results[0]


def test_acl_file_not_directly_writable(machine, box):
    assert (
        boxed_write_file(box, f"{box.home}/{ACL_FILE_NAME}", b"Evil rwlxa\n")
        == -Errno.EACCES
    )


def test_grant_lets_other_identity_in(machine, alice):
    a = IdentityBox(machine, alice, "UserA")
    b = IdentityBox(machine, alice, "UserB", supervisor=a.supervisor)
    boxed_write_file(a, "shared.txt", b"for b")
    a.grant(a.home, "UserB", "rl")
    assert boxed_read_file(b, a.home + "/shared.txt") == b"for b"


def test_visitor_self_administers_acl(machine, alice):
    a = IdentityBox(machine, alice, "UserA")
    b = IdentityBox(machine, alice, "UserB", supervisor=a.supervisor)
    boxed_write_file(a, "doc", b"d")
    results = run_calls(
        [("setacl", ".", "UserB", "rl")], machine=machine, box=a, cwd=a.home
    )
    assert results == [0]
    assert boxed_read_file(b, a.home + "/doc") == b"d"


def test_setacl_requires_admin_right(machine, alice):
    a = IdentityBox(machine, alice, "UserA")
    b = IdentityBox(machine, alice, "UserB", supervisor=a.supervisor)
    results = run_calls(
        [("setacl", a.home, "UserB", "rwlxa")], machine=machine, box=b
    )
    assert results == [-Errno.EACCES]


def test_identity_box_run_oneshot(machine, alice):
    def body(proc, args):
        name = yield proc.sys.get_user_name()
        proc.scratch["name"] = name
        return 0

    proc = identity_box_run(machine, alice, "OneShot", body)
    assert proc.exit_status == 0
    assert proc.context.scratch["name"] == "OneShot"


def test_signal_containment_same_identity(machine, alice):
    box = IdentityBox(machine, alice, "Visitor")

    def victim(proc, args):
        while True:
            yield proc.compute(us=5)

    vproc = box.spawn(victim, comm="victim")

    def killer(proc, args):
        result = yield proc.sys.kill(vproc.pid, Signal.SIGKILL)
        proc.scratch["kill"] = result
        return 0

    kproc = box.spawn(killer, comm="killer")
    machine.run(max_steps=100_000)
    assert kproc.context.scratch["kill"] == 0
    assert not vproc.alive


def test_signal_containment_cross_identity_denied(machine, alice):
    a = IdentityBox(machine, alice, "UserA")
    b = IdentityBox(machine, alice, "UserB", supervisor=a.supervisor)

    def victim(proc, args):
        for _ in range(200):
            yield proc.compute(us=5)
        return 0

    vproc = a.spawn(victim)
    results = run_calls(
        [("kill", vproc.pid, int(Signal.SIGKILL))], machine=machine, box=b
    )
    assert results == [-Errno.EPERM]
    machine.run(max_steps=100_000)
    assert vproc.exit_status == 0  # survived


def test_signal_to_unboxed_process_denied(machine, alice, box):
    def outside(proc, args):
        for _ in range(100):
            yield proc.compute(us=5)
        return 0

    outsider = machine.spawn(outside, cred=alice)
    results = run_calls(
        [("kill", outsider.pid, int(Signal.SIGKILL))], machine=machine, box=box
    )
    assert results == [-Errno.EPERM]
    assert outsider.exit_status == 0


def test_children_inherit_box_identity(machine, alice, box):
    seen = {}

    def child(proc, args):
        seen["name"] = yield proc.sys.get_user_name()
        return 0

    machine.register_program("child", child)
    # stage the program into the box home (the visitor can execute it there)
    machine.install_program(box.owner_task, f"{box.home}/child.exe", "child")

    def parent(proc, args):
        pid = yield proc.sys.spawn("child.exe", ())
        proc.scratch["child_pid"] = pid
        yield proc.sys.waitpid()
        return 0

    pproc = box.spawn(parent)
    machine.run_to_completion()
    child_pid = pproc.context.scratch["child_pid"]
    assert child_pid > 0
    # the child was reaped; what it saw comes back through ``seen``
    assert seen["name"] == "Visitor"
