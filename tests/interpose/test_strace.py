"""strace-style syscall recording."""

import pytest

from repro.core.box import IdentityBox
from repro.interpose.strace import SyscallTrace, TraceRecord
from repro.kernel import Errno
from tests.helpers import boxed_read_file, boxed_write_file


@pytest.fixture
def traced_box(machine, alice):
    box = IdentityBox(machine, alice, "Traced")
    box.supervisor.strace = SyscallTrace()
    return box


def test_records_every_trapped_call(machine, traced_box):
    boxed_write_file(traced_box, "f", b"abc")
    trace = traced_box.supervisor.strace
    names = [r.name for r in trace.records]
    assert names == ["open", "write", "close"]


def test_records_original_call_not_rewrite(machine, traced_box):
    # a bulk write is rewritten into pwrite-on-channel; the trace must
    # still say "write", with the child's own arguments
    boxed_write_file(traced_box, "big", b"z" * 4096)
    trace = traced_box.supervisor.strace
    write_record = trace.calls_named("write")[0]
    assert write_record.args[2] == 4096
    assert write_record.result == 4096
    assert not trace.calls_named("pwrite")


def test_records_denials_with_errno(machine, alice_task, traced_box):
    machine.write_file(alice_task, "/home/alice/x", b"s", mode=0o600)
    boxed_read_file(traced_box, "/home/alice/x")
    failures = traced_box.supervisor.strace.failures()
    assert failures
    assert failures[0].result == -Errno.EACCES
    assert "EACCES" in failures[0].render()


def test_render_format(machine, traced_box):
    boxed_write_file(traced_box, "notes.txt", b"hi")
    text = traced_box.supervisor.strace.render()
    assert '[pid ' in text
    assert 'Traced] open("notes.txt"' in text
    assert "= 2" in text  # the write's result


def test_histogram(machine, traced_box):
    boxed_write_file(traced_box, "a", b"1")
    boxed_write_file(traced_box, "b", b"2")
    hist = traced_box.supervisor.strace.histogram()
    assert hist["open"] == 2
    assert hist["write"] == 2
    assert hist["close"] == 2


def test_for_identity_and_pid(machine, alice):
    sup_box = IdentityBox(machine, alice, "A")
    sup_box.supervisor.strace = SyscallTrace()
    b_box = IdentityBox(machine, alice, "B", supervisor=sup_box.supervisor)
    boxed_write_file(sup_box, "fa", b"1")
    boxed_write_file(b_box, "fb", b"2")
    trace = sup_box.supervisor.strace
    assert {r.identity for r in trace.records} == {"A", "B"}
    assert all(r.identity == "A" for r in trace.for_identity("A"))
    pid = trace.records[0].pid
    assert all(r.pid == pid for r in trace.for_pid(pid))


def test_limit_drops_oldest(machine, traced_box):
    traced_box.supervisor.strace.limit = 2
    boxed_write_file(traced_box, "f", b"x")  # open+write+close = 3 calls
    trace = traced_box.supervisor.strace
    assert len(trace) == 2
    assert [r.name for r in trace.records] == ["write", "close"]


def test_addresses_rendered_opaquely():
    record = TraceRecord(0, 1, "I", "read", (3, 0x10000000, 64), 64)
    assert "<addr>" in record.render()


def test_long_arguments_truncated():
    record = TraceRecord(0, 1, "I", "open", ("x" * 500,), 3)
    assert len(record.render()) < 200
    assert "..." in record.render()


def test_tracing_costs_no_simulated_time(machine, alice):
    def run(with_trace):
        m = __import__("repro.kernel", fromlist=["Machine"]).Machine()
        cred = m.add_user("u")
        box = IdentityBox(m, cred, "V")
        if with_trace:
            box.supervisor.strace = SyscallTrace()
        boxed_write_file(box, "f", b"data")
        return m.clock.now_ns

    assert run(True) == run(False)
