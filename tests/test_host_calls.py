"""A trapped syscall runs few Python frames on the host.

Each layer of the delegated path (trap, supervisor bind, pipeline, ACL
check, the supervisor's own kernel call, nullify, exit stop) has one
entry, and frames that only forward from one entry to the next are not
kept (DESIGN.md §12, "Delegated syscall frame").  This test counts the
``"call"`` events a ``sys.setprofile`` hook sees during a boxed make: a
Python function's frame or a generator's resume each count once, a C
builtin (``len``, ``dict.get``, ``isinstance``) not at all.  With the
forwarding frames in place the boxed make ran 89.05 calls per trapped
syscall; without them it runs 74.38.  The simulated time and the trapped
count stay pinned beside it, so no frame is saved by skipping work.
"""

from __future__ import annotations

import sys

from repro.workloads import MAKE, run_app
from tests.test_ledger_updates import MAKE_BOXED


def test_boxed_make_runs_at_most_76_python_calls_per_trapped_syscall():
    calls = 0
    # a hook already installed (the call census) keeps seeing every frame
    previous = sys.getprofile()

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
        if previous is not None:
            previous(frame, event, arg)

    sys.setprofile(count)
    try:
        seconds, trapped = run_app(MAKE, boxed=True, scale=0.01)
    finally:
        sys.setprofile(previous)
    assert (round(seconds, 9), trapped) == MAKE_BOXED
    assert calls <= 76 * trapped, f"{calls / trapped:.2f} calls per trapped syscall"
