"""Run workloads unmodified vs. inside an identity box; measure sim time.

The measurement protocol mirrors §7: the same program is run twice on
identical fresh machines, once directly and once under the interposition
supervisor with an identity attached, and the ratio of simulated runtimes
is the overhead.  Per-syscall latencies come straight from the telemetry
layer: every run is instrumented with a :class:`~repro.core.telemetry.
Telemetry`, and a microbenchmark's per-call figure is the mean of its
ops' ``syscall.latency_ns`` histograms — one run replaces the paper's
1000 cycles (and this module's former two-run differencing), because the
simulation prices every call deterministically.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from ..core.acl import Acl
from ..core.aclfs import AclPolicy
from ..core.box import IdentityBox
from ..core.telemetry import LatencyStats, Telemetry
from ..kernel.machine import Machine, WorldSnapshot
from ..kernel.timing import CostModel, NS_PER_S, NS_PER_US
from ..kernel.vfs import join
from .base import (
    AppProfile,
    BLOCK,
    INPUT_FILE,
    META_FILES,
    META_PREFIX,
    OUTPUT_FILE,
    app_body,
    child_body,
)
from .microbench import BENCH_FILE, MicrobenchSpec

#: Identity attached to every boxed run.
BOX_IDENTITY = "globus:/O=UnivNowhere/CN=Fred"

WORKDIR = "/home/grid/work"

CHILD_EXE = "cc.exe"


@dataclass(frozen=True)
class AppResult:
    """Figure 5(b) datum for one application."""

    name: str
    base_s: float
    boxed_s: float
    base_syscalls: int
    boxed_syscalls: int
    #: per-op latency summaries for the boxed run, from the machine-level
    #: ``syscall.latency_ns`` histograms (empty if run uninstrumented)
    boxed_stats: dict[str, LatencyStats] = field(default_factory=dict)

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.boxed_s - self.base_s) / self.base_s

    @property
    def base_ops_per_sec(self) -> float:
        return self.base_syscalls / self.base_s if self.base_s else 0.0

    @property
    def boxed_ops_per_sec(self) -> float:
        return self.boxed_syscalls / self.boxed_s if self.boxed_s else 0.0


@dataclass(frozen=True)
class MicrobenchResult:
    """Figure 5(a) datum for one syscall.

    ``unmodified_us``/``boxed_us`` are per-*iteration* costs (the sum of
    the spec's ops' mean latencies — one op for every row but open-close,
    which sums both calls); the stats summarize individual calls.
    """

    name: str
    unmodified_us: float
    boxed_us: float
    unmodified_stats: LatencyStats = field(default_factory=LatencyStats)
    boxed_stats: LatencyStats = field(default_factory=LatencyStats)

    @property
    def slowdown(self) -> float:
        return self.boxed_us / self.unmodified_us if self.unmodified_us else 0.0


# --------------------------------------------------------------------- #
# machine preparation
# --------------------------------------------------------------------- #


#: Session-lifetime cache of prepared-world snapshots, one per distinct
#: (profile, cost-model) pair.  A template is built by cold-preparing a
#: machine once; every later run forks it in O(size-of-diff).
_TEMPLATES: dict[tuple, WorldSnapshot] = {}


def _prepare_cold(
    profile: AppProfile | None, costs: CostModel | None
) -> tuple[Machine, object]:
    """Fresh machine with the workload's file layout in place."""
    machine = Machine(costs=costs)
    cred = machine.add_user("grid")
    task = machine.host_task(cred, cwd=WORKDIR)
    machine.kcall_x(task, "mkdir", WORKDIR, 0o755)
    block = bytes(range(256)) * (BLOCK // 256)
    machine.write_file(task, join(WORKDIR, INPUT_FILE), block * 64)
    machine.write_file(task, join(WORKDIR, OUTPUT_FILE), b"")
    machine.write_file(task, join(WORKDIR, BENCH_FILE), block)
    for i in range(META_FILES):
        machine.write_file(task, join(WORKDIR, f"{META_PREFIX}{i}"), b"meta")
    if profile is not None and profile.spawns:
        child_name = f"child_{profile.name}"
        machine.register_program(child_name, child_body(profile))
        machine.install_program(task, join(WORKDIR, CHILD_EXE), child_name)
    return machine, cred


def _prepare(
    profile: AppProfile | None,
    costs: CostModel | None,
    *,
    use_snapshots: bool = False,
) -> tuple[Machine, object]:
    """A machine prepared for one run — cold-booted or forked from a template.

    The measurement protocol requires *identical fresh machines* for the
    base and boxed runs; a fork of the same immutable template satisfies
    that by construction (and the equivalence is tested), while skipping
    the file-layout setup on every run after a configuration's first.
    """
    if not use_snapshots:
        return _prepare_cold(profile, costs)
    key = (profile, astuple(costs or CostModel()))
    snap = _TEMPLATES.get(key)
    if snap is None:
        snap = _prepare_cold(profile, costs)[0].snapshot()
        _TEMPLATES[key] = snap
    machine = Machine(snapshot=snap)
    return machine, machine.users.credentials_for("grid")


def _run(
    machine: Machine,
    cred,
    factory,
    *,
    boxed: bool,
    comm: str,
) -> tuple[float, int]:
    """Execute one prepared run, then close its machine; returns (sim
    seconds, syscalls dispatched)."""
    try:
        if boxed:
            # the owner grants the visiting identity the workload directory
            # before the box starts, so the box's monitor reads that ACL on
            # first use like any ACL already on disk (a one-off writer keeps
            # no cache)
            owner = machine.host_task(cred)
            AclPolicy(machine, owner, cache_enabled=False).write_acl(
                WORKDIR, Acl.for_owner(BOX_IDENTITY)
            )
            box = IdentityBox(machine, cred, BOX_IDENTITY, make_home=False)
            start = machine.clock.now_ns
            box.spawn(factory, cwd=WORKDIR, comm=comm)
            machine.run_to_completion()
            elapsed = machine.clock.now_ns - start
            return elapsed / NS_PER_S, box.supervisor.syscalls_handled
        start = machine.clock.now_ns
        machine.spawn(factory, cred=cred, cwd=WORKDIR, comm=comm)
        machine.run_to_completion()
        elapsed = machine.clock.now_ns - start
        return elapsed / NS_PER_S, machine.proc_syscalls
    finally:
        machine.close()


# --------------------------------------------------------------------- #
# Figure 5(b): application overhead
# --------------------------------------------------------------------- #


def run_app(
    profile: AppProfile,
    *,
    boxed: bool,
    scale: float = 0.01,
    costs: CostModel | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[float, int]:
    """One application run; returns (sim seconds, syscalls).

    A ``telemetry`` instance attached here rides the run's machine and
    fills with per-op latency histograms; recording is free in simulated
    time, so the returned seconds are identical either way.
    """
    machine, cred = _prepare(profile, costs)
    if telemetry is not None:
        telemetry.clock = machine.clock
        machine.telemetry = telemetry
    factory = app_body(profile, scale, child_program=CHILD_EXE)
    return _run(machine, cred, factory, boxed=boxed, comm=profile.name)


def measure_app(
    profile: AppProfile,
    *,
    scale: float = 0.01,
    costs: CostModel | None = None,
) -> AppResult:
    """Unmodified vs. boxed, on identical fresh machines."""
    base_s, base_n = run_app(profile, boxed=False, scale=scale, costs=costs)
    telemetry = Telemetry()
    boxed_s, boxed_n = run_app(
        profile, boxed=True, scale=scale, costs=costs, telemetry=telemetry
    )
    boxed_stats = {
        dict(key).get("op", "?"): LatencyStats.from_histograms(hist)
        for key, hist in telemetry.histograms_named("syscall.latency_ns")
    }
    return AppResult(
        name=profile.name,
        base_s=base_s,
        boxed_s=boxed_s,
        base_syscalls=base_n,
        boxed_syscalls=boxed_n,
        boxed_stats=boxed_stats,
    )


# --------------------------------------------------------------------- #
# Figure 5(a): syscall latency
# --------------------------------------------------------------------- #


def profile_microbench(
    spec: MicrobenchSpec,
    *,
    boxed: bool,
    iterations: int = 2000,
    costs: CostModel | None = None,
) -> tuple[float, LatencyStats]:
    """One instrumented run: (per-iteration µs, per-call stats).

    The per-iteration figure sums the mean latency of each op the spec's
    loop body performs, read off the machine-level ``syscall.latency_ns``
    histograms; the stats merge those ops' per-call distributions.  One
    run suffices where the old protocol differenced two iteration counts:
    the preamble's open/close are either different ops than the ones
    measured or identically priced, so the histograms are clean.
    """
    machine, cred = _prepare(None, costs)
    telemetry = Telemetry(machine.clock)
    machine.telemetry = telemetry
    factory = spec.make_factory(iterations)
    _run(machine, cred, factory, boxed=boxed, comm=f"bench:{spec.name}")
    mode = "traced" if boxed else "direct"
    hists = [
        telemetry.histogram("syscall.latency_ns", op=op, mode=mode)
        for op in spec.ops
    ]
    per_iter_us = sum(h.mean for h in hists) / NS_PER_US
    return per_iter_us, LatencyStats.from_histograms(*hists)


def run_microbench(
    spec: MicrobenchSpec,
    *,
    boxed: bool,
    iterations: int = 2000,
    costs: CostModel | None = None,
) -> float:
    """Per-iteration latency in microseconds (see :func:`profile_microbench`)."""
    per_iter_us, _stats = profile_microbench(
        spec, boxed=boxed, iterations=iterations, costs=costs
    )
    return per_iter_us


def measure_microbench(
    spec: MicrobenchSpec,
    *,
    iterations: int = 2000,
    costs: CostModel | None = None,
) -> MicrobenchResult:
    base_us, base_stats = profile_microbench(
        spec, boxed=False, iterations=iterations, costs=costs
    )
    boxed_us, boxed_stats = profile_microbench(
        spec, boxed=True, iterations=iterations, costs=costs
    )
    return MicrobenchResult(
        name=spec.name,
        unmodified_us=base_us,
        boxed_us=boxed_us,
        unmodified_stats=base_stats,
        boxed_stats=boxed_stats,
    )
