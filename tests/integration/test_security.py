"""Escape-attempt battery: the §6 traps-and-pitfalls, adversarially.

Each test plays a hostile boxed program trying one of the classic
interposition escapes; the box must contain every one.
"""

import pytest

from repro.core import IdentityBox
from repro.core.acl import ACL_FILE_NAME
from repro.kernel import Errno, OpenFlags, Signal
from tests.helpers import boxed_read_file, boxed_write_file, run_calls


@pytest.fixture
def victim_file(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/victim.dat", b"protected", mode=0o600)
    return "/home/alice/victim.dat"


@pytest.fixture
def evil_box(machine, alice):
    return IdentityBox(machine, alice, "JoeHacker")


def test_direct_read_denied(machine, evil_box, victim_file):
    assert boxed_read_file(evil_box, victim_file) == -Errno.EACCES


def test_relative_path_traversal_denied(machine, evil_box, victim_file):
    # climbing out of the home with ../../.. is just another path to check
    assert (
        boxed_read_file(evil_box, "../../../home/alice/victim.dat") == -Errno.EACCES
    )


def test_symlink_laundering_denied(machine, evil_box, victim_file):
    """Indirect paths (§6): a link in my home must not relax the target."""
    results = run_calls(
        [("symlink", victim_file, "innocent")], machine=machine, box=evil_box
    )
    assert results == [0]  # creating the link is fine...
    assert boxed_read_file(evil_box, "innocent") == -Errno.EACCES  # ...using it is not


def test_hard_link_laundering_denied(machine, evil_box, victim_file):
    results = run_calls(
        [("link", victim_file, "grabbed")], machine=machine, box=evil_box
    )
    assert results == [-Errno.EACCES]


def test_hard_link_write_amplification_denied(machine, alice_task, evil_box):
    """Fuzzer-found: linking a world-READABLE file into the visitor's home
    must fail — the home ACL would otherwise grant write on the alias."""
    machine.write_file(alice_task, "/home/alice/notes.txt", b"alice's", mode=0o644)
    # reading is legitimately allowed by the nobody fallback...
    assert boxed_read_file(evil_box, "/home/alice/notes.txt") == b"alice's"
    # ...but aliasing it into writable territory is not
    results = run_calls(
        [("link", "/home/alice/notes.txt", "alias")], machine=machine, box=evil_box
    )
    assert results == [-Errno.EACCES]
    assert machine.read_file(alice_task, "/home/alice/notes.txt") == b"alice's"


def test_cannot_drag_foreign_directories_through_tmp(machine, alice, evil_box):
    """Fuzzer-found: rename('..', 'sub') from the box home used to move
    /tmp/boxes — other visitors' homes included — into the attacker's
    namespace.  Entry mutations in un-ACL'd space get sticky semantics."""
    from repro.core.box import IdentityBox

    other = IdentityBox(machine, alice, "Innocent", supervisor=evil_box.supervisor)
    boxed_write_file(other, "treasure", b"safe")
    results = run_calls(
        [("rename", "..", "stolen"), ("rmdir", ".."), ("unlink", "../Innocent/treasure")],
        machine=machine,
        box=evil_box,
    )
    assert all(isinstance(r, int) and r < 0 for r in results)
    assert boxed_read_file(other, "treasure") == b"safe"


def test_acl_file_forgery_denied(machine, alice, alice_task, evil_box):
    """The visitor must not write ACL files anywhere, even in its own home."""
    assert (
        boxed_write_file(evil_box, f"{evil_box.home}/{ACL_FILE_NAME}", b"JoeHacker rwlxa")
        == -Errno.EACCES
    )
    # nor plant one into a directory that has none (privilege escalation)
    machine.kcall_x(alice_task, "mkdir", "/home/alice/pub", 0o777)
    assert (
        boxed_write_file(evil_box, f"/home/alice/pub/{ACL_FILE_NAME}", b"JoeHacker rwlxa")
        == -Errno.EACCES
    )


def test_rename_cannot_move_acl_files(machine, evil_box):
    boxed_write_file(evil_box, "fake", b"JoeHacker rwlxa\n")
    results = run_calls(
        [("rename", "fake", ACL_FILE_NAME)], machine=machine, box=evil_box
    )
    assert results == [-Errno.EACCES]


def test_chmod_cannot_reopen_unix_window(machine, evil_box, victim_file):
    results = run_calls([("chmod", victim_file, 0o777)], machine=machine, box=evil_box)
    assert results == [-Errno.EPERM]


def test_cannot_signal_outside_processes(machine, alice, evil_box):
    def bystander(proc, args):
        for _ in range(50):
            yield proc.compute(us=10)
        return 0

    outsider = machine.spawn(bystander, cred=alice)
    results = run_calls(
        [("kill", outsider.pid, int(Signal.SIGKILL))], machine=machine, box=evil_box
    )
    assert results == [-Errno.EPERM]
    assert outsider.exit_status == 0


def test_cannot_kill_by_guessing_pids(machine, evil_box):
    # probing the pid space neither kills nor reveals existence
    results = run_calls(
        [("kill", pid, int(Signal.SIGKILL)) for pid in range(1, 30)],
        machine=machine,
        box=evil_box,
    )
    assert all(r == -Errno.EPERM for r in results)


def test_spawned_children_stay_boxed(machine, alice, alice_task, evil_box, victim_file):
    """Containment is transitive: a child's escape attempt also fails."""
    seen = {}

    def stealer(proc, args):
        seen["open"] = yield proc.sys.open("/home/alice/victim.dat", OpenFlags.O_RDONLY)
        return 0

    machine.register_program("stealer", stealer)
    machine.install_program(evil_box.owner_task, f"{evil_box.home}/s.exe", "stealer")

    def parent(proc, args):
        pid = yield proc.sys.spawn("s.exe", ())
        proc.scratch["child"] = pid
        yield proc.sys.waitpid()
        return 0

    pproc = evil_box.spawn(parent)
    machine.run_to_completion()
    assert pproc.context.scratch["child"] > 0
    # the child was reaped; what it saw comes back through ``seen``
    assert seen["open"] == -Errno.EACCES


def test_nested_tracing_denied(machine, evil_box):
    """Parrot does not implement ptrace inside the box (§6)."""
    results = run_calls([("ptrace", 0, 1)], machine=machine, box=evil_box)
    assert results == [-Errno.ENOSYS]


def test_mount_denied(machine, evil_box):
    results = run_calls([("mount", "/dev/evil", "/")], machine=machine, box=evil_box)
    assert results == [-Errno.ENOSYS]


def test_etc_passwd_redirect_cannot_corrupt_real_db(machine, evil_box, root_task):
    """Writing 'to /etc/passwd' inside the box hits the private copy only."""
    before = machine.read_file(root_task, "/etc/passwd")

    def body(proc, args):
        fd = yield proc.sys.open("/etc/passwd", OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
        proc.scratch["fd"] = fd
        if isinstance(fd, int) and fd >= 0:
            addr = proc.alloc_bytes(b"root::0:0::/:/bin/sh\n")
            yield proc.sys.write(fd, addr, 21)
            yield proc.sys.close(fd)
        return 0

    evil_box.spawn(body)
    machine.run()
    assert machine.read_file(root_task, "/etc/passwd") == before


def test_fd_numbers_cannot_be_guessed(machine, evil_box):
    """The supervisor's own descriptors are not addressable from the box."""
    results = run_calls(
        [("read", fd, 0, 1) for fd in (0, 1, 2, 50, 998)],
        machine=machine,
        box=evil_box,
    )
    assert all(r == -Errno.EBADF for r in results)


def test_audit_survives_the_attack_session(machine, alice, victim_file):
    from repro.core import AuditLog

    audit = AuditLog()
    box = IdentityBox(machine, alice, "JoeHacker", audit=audit)
    boxed_read_file(box, victim_file)
    boxed_write_file(box, "loot.txt", b"nothing")
    denied_targets = [r.target for r in audit.denials()]
    assert any("victim.dat" in t for t in denied_targets)
    accessed = box.audit.objects_accessed("JoeHacker")
    assert any("loot.txt" in t for t in accessed)
