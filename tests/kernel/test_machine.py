"""Processes, the scheduler, signals, and spawn/wait semantics."""

import pytest

from repro.kernel import (
    Errno,
    KernelError,
    Machine,
    OpenFlags,
    ProcessState,
    Signal,
    WaitResult,
)
from tests.helpers import run_calls


def test_spawn_runs_body_to_exit(machine, alice):
    seen = []

    def body(proc, args):
        seen.append(args)
        yield proc.compute(us=10)
        return 42

    proc = machine.spawn(body, ["a", "b"], cred=alice, comm="t")
    machine.run_to_completion()
    assert proc.exit_status == 42
    assert seen == [["a", "b"]]
    assert proc.state is ProcessState.DEAD


def test_explicit_exit_syscall(machine, alice):
    def body(proc, args):
        yield proc.sys.exit(7)
        raise AssertionError("unreachable")  # pragma: no cover

    proc = machine.spawn(body, cred=alice)
    machine.run_to_completion()
    assert proc.exit_status == 7


def test_compute_advances_clock(machine, alice):
    def body(proc, args):
        yield proc.compute(ms=3)
        return 0

    machine.spawn(body, cred=alice)
    start = machine.clock.now_ns
    machine.run_to_completion()
    assert machine.clock.snapshot().get("compute") == 3_000_000
    assert machine.clock.now_ns > start


def test_process_syscalls_counted(machine, alice):
    results = run_calls([("getpid",), ("getuid",)], machine=machine, cred=alice)
    assert machine.proc_syscalls >= 2
    assert results[1] == alice.uid


def test_waitpid_reaps_child(machine, alice, alice_task):
    machine.register_program("child", lambda proc, args: iter(()))

    def child(proc, args):
        yield proc.compute(us=5)
        return 3

    seen = {}

    def parent(proc, args):
        # spawn via file to exercise the full path
        result = yield proc.sys.waitpid()
        seen["wait"] = result
        return result

    # direct spawn-with-ppid: create child as parent's child manually
    parent_proc = machine.spawn(parent, cred=alice, comm="parent")
    child_proc = machine.spawn(child, cred=alice, ppid=parent_proc.pid, comm="child")
    machine.run_to_completion()
    # parent's body returned the WaitResult; return values aren't exit codes
    # for non-int, so exit status defaults to 0 — inspect instead:
    assert parent_proc.exit_status == 0
    assert seen["wait"] == WaitResult(pid=child_proc.pid, status=3)
    # both were reaped (the child by waitpid, the parent by init): a reaped
    # process leaves the table
    assert machine.processes() == []


def test_waitpid_with_no_children_is_echild(machine, alice):
    results = run_calls([("waitpid",)], machine=machine, cred=alice)
    assert results == [-Errno.ECHILD]


def test_waitpid_blocks_until_child_exits(machine, alice):
    order = []

    def child(proc, args):
        yield proc.compute(us=50)
        order.append("child-done")
        return 9

    def parent(proc, args):
        result = yield proc.sys.waitpid()
        order.append(("reaped", result.pid, result.status))
        return 0

    pproc = machine.spawn(parent, cred=alice)
    cproc = machine.spawn(child, cred=alice, ppid=pproc.pid)
    machine.run_to_completion()
    assert order == ["child-done", ("reaped", cproc.pid, 9)]


def test_spawn_from_file(machine, alice, alice_task):
    def hello(proc, args):
        yield proc.compute(us=1)
        return 5

    machine.register_program("hello", hello)
    machine.install_program(alice_task, "/home/alice/hello.exe", "hello")
    results = run_calls(
        [("spawn", "/home/alice/hello.exe", ()), ("waitpid",)],
        machine=machine,
        cred=alice,
        cwd="/home/alice",
    )
    pid = results[0]
    assert pid > 0
    assert isinstance(results[1], WaitResult)
    assert results[1].status == 5


def test_spawn_requires_execute_bit(machine, alice, alice_task):
    machine.register_program("p", lambda proc, args: iter(()))
    machine.install_program(alice_task, "/home/alice/p.exe", "p", mode=0o644)
    results = run_calls(
        [("spawn", "/home/alice/p.exe", ())],
        machine=machine,
        cred=alice,
        cwd="/home/alice",
    )
    assert results == [-Errno.EACCES]


def test_spawn_unregistered_program(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/bad.exe", b"#!repro:ghost\n", mode=0o755)
    results = run_calls(
        [("spawn", "/home/alice/bad.exe", ())],
        machine=machine,
        cred=alice,
        cwd="/home/alice",
    )
    assert results == [-Errno.ENOENT]


def test_spawn_non_executable_content(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/data.exe", b"not a program", mode=0o755)
    results = run_calls(
        [("spawn", "/home/alice/data.exe", ())],
        machine=machine,
        cred=alice,
        cwd="/home/alice",
    )
    assert results == [-Errno.ENOSYS]


def test_orphan_children_reparented(machine, alice):
    def child(proc, args):
        yield proc.compute(ms=1)
        return 0

    def parent(proc, args):
        yield proc.compute(us=1)
        return 0  # exits before child

    pproc = machine.spawn(parent, cred=alice)
    cproc = machine.spawn(child, cred=alice, ppid=pproc.pid)
    machine.run_to_completion()
    assert cproc.ppid == 0
    assert cproc.state is ProcessState.DEAD  # auto-reaped as orphan


# -- signals ------------------------------------------------------------ #


def test_kill_terminates_target(machine, alice):
    def victim(proc, args):
        while True:
            yield proc.compute(us=10)

    vproc = machine.spawn(victim, cred=alice)

    def killer(proc, args):
        result = yield proc.sys.kill(vproc.pid, Signal.SIGKILL)
        return result

    kproc = machine.spawn(killer, cred=alice)
    machine.run(max_steps=10_000)
    assert not vproc.alive
    assert vproc.exit_status == 128 + int(Signal.SIGKILL)
    assert kproc.exit_status == 0


def test_kill_cross_uid_denied(machine, alice):
    bob = machine.add_user("bob")

    def victim(proc, args):
        yield proc.compute(ms=1)
        return 0

    vproc = machine.spawn(victim, cred=alice)
    bob_task = machine.host_task(bob)
    assert machine.kcall(bob_task, "kill", vproc.pid, Signal.SIGTERM) == -Errno.EPERM
    machine.run_to_completion()


def test_kill_missing_process_is_esrch(machine, alice, alice_task):
    assert machine.kcall(alice_task, "kill", 99999, Signal.SIGTERM) == -Errno.ESRCH


def test_sigchld_ignored_by_default(machine, alice, alice_task):
    def victim(proc, args):
        yield proc.compute(ms=1)
        return 0

    vproc = machine.spawn(victim, cred=alice)
    assert machine.kcall(alice_task, "kill", vproc.pid, Signal.SIGCHLD) == 0
    machine.run_to_completion()
    assert vproc.exit_status == 0  # survived the ignored signal


def test_root_may_signal_anyone(machine, alice, root_task):
    def victim(proc, args):
        while True:
            yield proc.compute(us=10)

    vproc = machine.spawn(victim, cred=alice)
    assert machine.kcall(root_task, "kill", vproc.pid, Signal.SIGKILL) == 0
    assert not vproc.alive


# -- scheduler robustness ---------------------------------------------------- #


def test_run_to_completion_detects_deadlock(machine, alice):
    def waiter(proc, args):
        yield proc.sys.waitpid()
        return 0

    parent = machine.spawn(waiter, cred=alice)

    def immortal(proc, args):
        while True:
            yield proc.compute(us=1)

    machine.spawn(immortal, cred=alice, ppid=parent.pid)
    with pytest.raises(RuntimeError):
        machine.run(max_steps=1000)  # livelock guard trips


def test_crashed_body_becomes_signal_exit(machine, alice):
    from repro.kernel.errno import err

    def crasher(proc, args):
        yield proc.compute(us=1)
        raise err(Errno.EFAULT, "wild pointer")

    proc = machine.spawn(crasher, cred=alice)
    machine.run_to_completion()
    assert not proc.alive
    assert proc.exit_status > 128


def test_context_switch_charged_between_processes(machine, alice):
    def worker(proc, args):
        for _ in range(3):
            yield proc.compute(us=1)
        return 0

    machine.spawn(worker, cred=alice)
    machine.spawn(worker, cred=alice)
    machine.run_to_completion()
    assert machine.clock.snapshot().get("switch", 0) > 0


def test_single_process_run_has_no_switches(machine, alice):
    def worker(proc, args):
        for _ in range(5):
            yield proc.compute(us=1)
        return 0

    machine.spawn(worker, cred=alice)
    machine.run_to_completion()
    assert machine.clock.snapshot().get("switch", 0) == 0


def test_add_user_creates_home(machine):
    carol = machine.add_user("carol")
    task = machine.host_task(carol)
    st = machine.kcall_x(task, "stat", "/home/carol")
    assert st.is_dir
    assert st.st_uid == carol.uid


def test_passwd_file_refreshed(machine):
    machine.add_user("dave")
    root = machine.host_task(machine.users.credentials_for("root"))
    text = machine.read_file(root, "/etc/passwd").decode()
    assert any(line.startswith("dave:x:") for line in text.splitlines())


def test_shared_clock_between_machines():
    from repro.kernel.timing import Clock

    clock = Clock()
    m1 = Machine(clock=clock, hostname="h1")
    m2 = Machine(clock=clock, hostname="h2")
    t1 = m1.host_task(m1.users.credentials_for("root"))
    before = clock.now_ns
    m1.kcall(t1, "getuid")
    assert m2.clock.now_ns == clock.now_ns > before


class NoScanProcs(dict):
    """A process table that fails the test if anything scans it."""

    def values(self):
        raise AssertionError("the machine scanned its process table")


def quick(proc, args):
    return 0
    yield  # pragma: no cover - makes this a generator


def test_process_of_does_not_scan_reaped_processes(machine, alice):
    reaped = [machine.spawn(quick, cred=alice) for _ in range(2000)]
    machine.run()
    # a reaped process leaves the table: its pid no longer names it
    assert all(p.state is ProcessState.DEAD for p in reaped)
    assert machine.processes() == []
    for proc in (reaped[0], reaped[-1]):
        with pytest.raises(KernelError) as exc:
            machine.process(proc.pid)
        assert exc.value.errno is Errno.ESRCH
    machine._procs = NoScanProcs(machine._procs)
    seen = {}

    def parent(proc, args):
        seen["pid"] = yield proc.sys.getpid()
        seen["ppid"] = yield proc.sys.getppid()
        return 0

    def thread(proc, args):
        seen["thread_pid"] = yield proc.sys.getpid()
        return 0

    proc = machine.spawn(parent, cred=alice, ppid=7)
    machine.spawn_thread(proc, thread)
    machine.run()
    # a thread shares its creator's task, so the creator answers for it
    assert seen == {"pid": proc.pid, "ppid": 7, "thread_pid": proc.pid}
    assert machine.process_of(machine.host_task(alice)) is None


def test_an_exiting_parent_reaps_its_zombie_children(machine, alice):
    """A parent that exits without waitpid leaves no zombie behind: init
    reaps the children already dead, as it reaps the rest at their exit."""

    def parent(proc, args):
        yield proc.compute(us=10)  # the child exits first and waits for us
        return 0

    children = []
    for _ in range(50):
        proc = machine.spawn(parent, cred=alice)
        children.append(machine.spawn(quick, cred=alice, ppid=proc.pid))
    machine.run()
    assert all(child.state is ProcessState.DEAD for child in children)
    assert machine.processes() == []


def test_a_thread_answers_with_its_reaped_creator(machine, alice):
    seen = {}

    def thread(proc, args):
        yield proc.compute(us=10)  # the creator exits and is reaped meanwhile
        seen["pid"] = yield proc.sys.getpid()
        return 0

    def creator(proc, args):
        yield proc.sys.thread(thread)
        return 0

    pid = machine.spawn(creator, cred=alice).pid  # nothing here holds it
    machine.run()
    assert seen == {"pid": pid}
    assert machine.processes() == []


def test_process_of_survives_a_restore(machine, alice):
    proc = machine.spawn(quick, cred=alice)
    machine.run()
    snap = machine.snapshot()
    machine.spawn(quick, cred=alice)
    machine.run()
    machine.restore(snap)
    assert machine.process_of(proc.task) is proc
    assert machine.fork(snap).process_of(proc.task) is proc
