"""The workload building blocks: units, bodies, child programs."""

import pytest

from repro.kernel import OpenFlags
from repro.kernel.vfs import join
from repro.workloads.base import (
    AppProfile,
    BLOCK,
    INPUT_FILE,
    META_FILES,
    META_PREFIX,
    OUTPUT_FILE,
    app_body,
    child_body,
    workload_unit,
)

TINY_PROFILE = AppProfile(
    name="tiny",
    description="unit-test profile",
    paper_runtime_s=1.0,
    paper_overhead_pct=0.0,
    iters=4,
    compute_us=10,
    reads_8k=2,
    writes_8k=1,
    stats=3,
    openclose=1,
    small_reads=1,
    small_writes=1,
)


@pytest.fixture
def workdir(machine, alice):
    task = machine.host_task(alice, cwd="/home/alice")
    machine.kcall_x(task, "mkdir", "/home/alice/work", 0o755)
    block = b"D" * BLOCK
    machine.write_file(task, join("/home/alice/work", INPUT_FILE), block * 70)
    machine.write_file(task, join("/home/alice/work", OUTPUT_FILE), b"")
    for i in range(META_FILES):
        machine.write_file(task, f"/home/alice/work/{META_PREFIX}{i}", b"m")
    return "/home/alice/work"


def test_syscalls_per_iter_accounting():
    assert TINY_PROFILE.syscalls_per_iter() == 2 + 1 + 3 + 2 + 1 + 1


def test_workload_unit_issues_expected_calls(machine, alice, workdir):
    issued = []

    def probe(proc, args):
        in_fd = yield proc.sys.open(INPUT_FILE, OpenFlags.O_RDONLY)
        out_fd = yield proc.sys.open(OUTPUT_FILE, OpenFlags.O_WRONLY)
        buf = proc.alloc(BLOCK)
        before = machine.proc_syscalls
        yield from workload_unit(proc, TINY_PROFILE, in_fd, out_fd, buf, 0)
        issued.append(machine.proc_syscalls - before)
        return 0

    machine.spawn(probe, cred=alice, cwd=workdir)
    machine.run_to_completion()
    assert issued == [TINY_PROFILE.syscalls_per_iter()]


def test_app_body_completes_and_writes_output(machine, alice, workdir):
    factory = app_body(TINY_PROFILE, scale=1.0)
    proc = machine.spawn(factory, cred=alice, cwd=workdir)
    machine.run_to_completion()
    assert proc.exit_status == 0
    task = machine.host_task(alice, cwd=workdir)
    st = machine.kcall_x(task, "stat", OUTPUT_FILE)
    assert st.st_size > 0


def test_child_body_runs_standalone(machine, alice, workdir):
    profile = AppProfile(
        name="c",
        description="child",
        paper_runtime_s=1.0,
        paper_overhead_pct=0.0,
        iters=1,
        compute_us=1,
        stats=2,
        child_units=3,
    )
    proc = machine.spawn(child_body(profile), cred=alice, cwd=workdir)
    machine.run_to_completion()
    assert proc.exit_status == 0


def test_profile_scaling_bounds():
    profile = TINY_PROFILE
    assert profile.scaled_iters(1.0) == 4
    assert profile.scaled_iters(0.5) == 2
    assert profile.scaled_iters(1e-12) == 1
    assert profile.scaled_spawns(1.0) == 0  # no spawns declared
