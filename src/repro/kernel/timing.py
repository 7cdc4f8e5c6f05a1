"""Simulated clock and hardware cost model.

The paper's evaluation (Figure 5) was performed on a 1545 MHz Athlon XP1800
running Linux 2.4.20.  We cannot rerun on that hardware, so the reproduction
charges *simulated nanoseconds* for each primitive hardware/kernel action and
reports results in simulated time.  The headline result of the paper is a
ratio — boxed syscalls cost ~10x an unmodified syscall because the
interposition agent needs at least six context switches plus register/word
traffic and, for bulk I/O, an extra data copy — and that ratio emerges from
the *mechanism* as long as the constants are individually plausible.

Calibration targets (Figure 5(a), unmodified column, microseconds/call):

=============  =======
getpid         ~0.4
stat           ~2.2
open+close     ~4.4
read 1 byte    ~1.0
read 8 kbyte   ~4.9
write 1 byte   ~1.2
write 8 kbyte  ~5.4
=============  =======

The boxed column in the paper sits roughly an order of magnitude above each
of these; our supervisor earns that the honest way, by paying
``context_switch_ns`` six times per trapped call plus peek/poke traffic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace


NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class CostModel:
    """Per-primitive simulated costs, in nanoseconds.

    All knobs are public so ablation benchmarks can sweep them (e.g.
    ``bench_ablation_ctxswitch`` revisits the paper's closing argument that a
    kernel implementation would avoid most context-switch cost).  A model is
    frozen: a sweep takes a copy with :meth:`scaled`, so whatever was
    precomputed from one model (a machine's
    :class:`~repro.kernel.ptrace.TrapPlan`) never goes stale.
    """

    #: Entering/leaving the kernel for a syscall (trap + return).
    syscall_trap_ns: int = 350
    #: One scheduler context switch between two processes.  The dominant cost
    #: of interposition: each delegated call needs six of these (Fig. 4).
    context_switch_ns: int = 1_800
    #: Cache-refill penalty charged alongside each context switch; the paper
    #: notes the extra switches "flush processor caches".
    cache_flush_ns: int = 450
    #: ptrace PEEK/POKE of one machine word (register or memory).
    ptrace_word_ns: int = 120
    #: Copying one byte of user data (memcpy-style; ~2 GB/s => ~0.5 ns/B).
    copy_byte_ns_x1000: int = 500  # stored x1000 to keep integer math exact
    #: Resolving one path component in the VFS (dcache hit).
    path_component_ns: int = 320
    #: Touching an inode (permission check, stat fill-in).
    inode_op_ns: int = 800
    #: Allocating/releasing a file descriptor.
    fd_op_ns: int = 500
    #: Fixed per-I/O overhead once the file is resolved (buffer cache hit).
    io_base_ns: int = 300
    #: Process creation (fork) and image replacement (exec) base costs.
    fork_ns: int = 90_000
    exec_ns: int = 160_000
    #: Signal delivery bookkeeping.
    signal_ns: int = 900
    #: One simulated network round-trip between two hosts (LAN-ish).
    net_rtt_ns: int = 180_000
    #: Network throughput, bytes per microsecond (~100 Mb/s => 12.5 B/us).
    net_bytes_per_us: int = 12

    def copy_cost(self, nbytes: int) -> int:
        """Simulated cost of copying ``nbytes`` of user data."""
        return (nbytes * self.copy_byte_ns_x1000) // 1_000

    def peekpoke_cost(self, nwords: int) -> int:
        """Simulated cost of moving ``nwords`` machine words via ptrace."""
        return nwords * self.ptrace_word_ns

    def switch_cost(self, nswitches: int) -> int:
        """Simulated cost of ``nswitches`` context switches including cache refill."""
        return nswitches * (self.context_switch_ns + self.cache_flush_ns)

    def net_transfer_cost(self, nbytes: int) -> int:
        """Simulated cost of moving ``nbytes`` across the network (no RTT)."""
        return (nbytes * NS_PER_US) // max(1, self.net_bytes_per_us)

    def scaled(self, **overrides: int) -> "CostModel":
        """Return a copy with some knobs replaced; used by ablation sweeps."""
        return replace(self, **overrides)


class Step:
    """A precomputed charge: ``total_ns`` and its ``(category, ns)`` parts.

    :meth:`Clock.apply` charges all of it as one ledger update.  A step is
    hashed by identity, so counting its applications is one dict update.
    """

    __slots__ = ("total_ns", "parts")

    def __init__(self, **parts: int) -> None:
        if any(ns < 0 for ns in parts.values()):
            raise ValueError(f"cannot charge negative time: {parts}")
        #: the nonzero ``(category, ns)`` pairs, in the order given
        self.parts = tuple((category, ns) for category, ns in parts.items() if ns)
        self.total_ns = sum(ns for _, ns in self.parts)


class Clock:
    """Monotonic simulated clock, nanosecond resolution.

    Every kernel subsystem charges time through :meth:`advance`, or through
    :meth:`apply` for a precomputed :class:`Step`; benchmarks read
    :attr:`now_ns` before and after a run.  The clock is deterministic:
    equal workloads produce equal timings, which keeps benchmark output and
    tests reproducible.
    """

    def __init__(self, now_ns: int = 0) -> None:
        self.now_ns = now_ns
        self._charges: dict[str, int] = {}
        #: step -> applications not yet folded into the charges
        self._applied: defaultdict[Step, int] = defaultdict(int)

    def advance(self, ns: int, category: str = "other") -> None:
        """Advance simulated time by ``ns`` nanoseconds (must be >= 0)."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += ns
        if ns:
            self._charges[category] = self._charges.get(category, 0) + ns

    def apply(self, step: Step) -> None:
        """Charge a whole :class:`Step`: one add to ``now_ns`` and one
        count; its categories reach :attr:`charges` when they are read."""
        self.now_ns += step.total_ns
        self._applied[step] += 1

    @property
    def charges(self) -> dict[str, int]:
        """Cumulative charge breakdown by category, for reporting/ablations."""
        applied = self._applied
        if applied:
            charges = self._charges
            for step, times in applied.items():
                for category, ns in step.parts:
                    charges[category] = charges.get(category, 0) + ns * times
            applied.clear()
        return self._charges

    def elapsed_since(self, start_ns: int) -> int:
        """Nanoseconds elapsed since a previously captured ``now_ns``."""
        return self.now_ns - start_ns

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self.now_ns / NS_PER_US

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self.now_ns / NS_PER_S

    def snapshot(self) -> dict[str, int]:
        """Copy of the per-category charge breakdown."""
        return dict(self.charges)

    # ------------------------------------------------------------------ #
    # snapshot protocol (see repro.kernel.Snapshotable); distinct from the
    # legacy :meth:`snapshot` above, which copies only the charges
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> object:
        return (self.now_ns, dict(self.charges))

    def restore_state(self, state: object) -> None:
        now_ns, charges = state
        self.now_ns = now_ns
        self._charges = dict(charges)
        self._applied.clear()
