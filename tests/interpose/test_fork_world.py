"""Fork-awareness of the interposition layer: supervisors and boxes.

A supervisor is welded to the world epoch it was built against; after a
``Machine.fork`` or ``restore`` it must refuse to adopt new children and
instead be re-hosted with :meth:`Supervisor.fork` (fresh task, channel,
process table, counters, and trace lineage).
"""

import pytest

from repro.core.box import IdentityBox
from repro.interpose.supervisor import Supervisor
from repro.kernel import Errno, KernelError
from tests.helpers import boxed_read_file, boxed_write_file, run_calls


def test_stale_supervisor_refuses_adopt(machine, alice, box):
    # quiesce, snapshot, rewind: the box's supervisor is now a past epoch
    machine.run()
    snap = machine.snapshot()
    machine.restore(snap)

    def body(proc, args):
        yield proc.sys.getpid()
        return 0

    with pytest.raises(KernelError) as exc:
        box.spawn(body)
    assert exc.value.errno is Errno.EBADF
    # nothing was started: no unboxed process is left to run
    assert machine.processes() == []
    machine.run()


def test_forked_box_runs_on_child_world(machine, alice, box):
    assert boxed_write_file(box, "f.txt", b"parent-data") == 11
    machine.run()
    child = machine.fork()
    cbox = box.fork(child)

    # the forked world carries the visitor's home and its file
    assert boxed_read_file(cbox, "f.txt") == b"parent-data"
    # writes in the forked box never reach the parent world
    assert boxed_write_file(cbox, "f.txt", b"child-data") == 10
    assert boxed_read_file(box, "f.txt") == b"parent-data"
    assert cbox.identity == box.identity
    assert cbox.home == box.home


def test_forked_supervisor_counters_detached(machine, alice, box):
    boxed_write_file(box, "a.txt", b"x")
    handled_before = box.supervisor.syscalls_handled
    assert handled_before > 0
    child = machine.fork()
    sup = box.supervisor.fork(child)
    assert sup.syscalls_handled == 0
    assert sup.denials == 0
    assert sup is not box.supervisor
    assert sup.machine is child
    # parent supervisor's tally is untouched by the fork
    assert box.supervisor.syscalls_handled == handled_before


def test_forked_box_spawns_fresh_trace_lineage(machine, alice):
    from repro.core.telemetry import Telemetry

    machine.telemetry = Telemetry(machine.clock)
    box = IdentityBox(machine, alice, "Visitor")
    boxed_write_file(box, "f.txt", b"data")
    parent_traces = {s.trace_id for s in machine.telemetry.spans}
    assert parent_traces

    child = machine.fork()
    cbox = box.fork(child)
    boxed_read_file(cbox, "f.txt")
    child_traces = {s.trace_id for s in child.telemetry.spans}
    assert child_traces
    assert parent_traces.isdisjoint(child_traces)


def test_forked_supervisor_keeps_the_acl_cache_switch(machine, alice):
    """A cache-less supervisor forks into a cache-less one, so the forked
    world charges the same simulated time as the world it came from."""
    sup = Supervisor(machine, alice, acl_cache=False)
    box = IdentityBox(machine, alice, "Visitor", supervisor=sup)
    calls = [("mkdir", "d", 0o755)] + [("stat", "d")] * 3
    child = machine.fork()
    cbox = box.fork(child)
    assert cbox.supervisor.policy.cache_enabled is False

    def elapsed(world, b):
        start = world.clock.now_ns
        run_calls(calls, machine=world, box=b)
        return world.clock.now_ns - start

    assert elapsed(child, cbox) == elapsed(machine, box)
