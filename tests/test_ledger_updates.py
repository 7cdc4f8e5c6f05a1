"""A trapped syscall costs few updates of the simulated clock's ledger.

Figure 4's stops and resumes are the steps of the machine's
:class:`~repro.kernel.ptrace.TrapPlan`, each charged by one
:meth:`Clock.apply <repro.kernel.timing.Clock.apply>`; the tracer's GETREGS
at every stop and the poke of a nullified call's result ride in the stops,
and a stat's walk and inode op are one charge.  Replayed charge by charge,
the boxed make took 17.46 updates per trapped syscall.  Every ledger update
is on the boxed hot path, so this test holds the count, and the run's
simulated time with it.
"""

from __future__ import annotations

from repro.kernel.timing import Clock
from repro.workloads import MAKE, run_app

#: ``benchmarks/e2e/expected.json``'s ``make@0.01`` boxed pin
MAKE_BOXED = (1.472391716, 22214)


def test_boxed_make_makes_at_most_nine_ledger_updates_per_trapped_syscall(monkeypatch):
    updates = 0
    advance, apply = Clock.advance, Clock.apply

    def counted_advance(self, ns, category="other"):
        nonlocal updates
        updates += 1
        advance(self, ns, category)

    def counted_apply(self, step):
        nonlocal updates
        updates += 1
        apply(self, step)

    monkeypatch.setattr(Clock, "advance", counted_advance)
    monkeypatch.setattr(Clock, "apply", counted_apply)
    seconds, trapped = run_app(MAKE, boxed=True, scale=0.01)
    assert (round(seconds, 9), trapped) == MAKE_BOXED
    assert updates <= 9 * trapped, f"{updates / trapped:.2f} updates per trapped syscall"
