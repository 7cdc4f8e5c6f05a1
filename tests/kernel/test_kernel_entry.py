"""The host-agent kernel entry: what ``kcall`` returns and ``kcall_x`` raises.

Every delegated syscall of a supervisor or Chirp server enters the kernel
through :meth:`Machine.kcall_x`, and a boxed child sees the errno it
raises.  These cases pin the errno and the text of the error for each way
the entry can fail, and the ``-errno`` that :meth:`Machine.kcall` returns
for the same call, so a change to the entry cannot move either.
"""

from __future__ import annotations

import pytest

from repro.kernel import Errno, KernelError


def _read_end_of_empty_pipe(machine, task):
    read_fd, _write_fd = machine.kcall_x(task, "pipe")
    return "read_bytes", (read_fd, 16)


CASES = {
    "unknown call": (lambda machine, task: ("no_such_call", (1, "x")), Errno.ENOSYS),
    "pipe op that would block": (_read_end_of_empty_pipe, Errno.EAGAIN),
    "handler error": (lambda machine, task: ("stat", ("/no/such/file",)), Errno.ENOENT),
}


@pytest.mark.parametrize("case", CASES)
def test_kernel_entry_errors_are_pinned(machine, alice_task, case):
    make, errno = CASES[case]
    name, args = make(machine, alice_task)
    trap_ns = machine.costs.syscall_trap_ns

    before = machine.clock.now_ns
    assert machine.kcall(alice_task, name, *args) == -int(errno)
    assert machine.clock.now_ns - before >= trap_ns

    with pytest.raises(KernelError) as caught:
        machine.kcall_x(alice_task, name, *args)
    assert caught.value.errno is errno
    assert caught.value.detail == f"{name}{args!r}"
    assert str(caught.value) == f"{errno.name}: {name}{args!r}"
