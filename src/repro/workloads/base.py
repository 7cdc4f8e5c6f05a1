"""Workload modelling for the paper's evaluation (§7).

The authors ran five scientific applications (AMANDA, BLAST, CMS, HF,
IBIS) plus a ``make`` of Parrot itself.  The binaries and inputs are not
available, but their *syscall character* is what determines interposition
overhead, and that character is documented: the science codes "perform
primarily large-block I/O" while the build "makes extensive use of small
metadata operations such as stat".  An :class:`AppProfile` encodes that
character as a per-iteration syscall recipe; the runner replays it as a
real process (every syscall actually dispatched, traced or not).

Runtimes and the paper's measured overheads are carried along for the
Figure 5(b) report; scale factors shrink iteration counts for test speed
without changing the overhead ratio (each iteration is identical).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.fdtable import O_RDONLY, O_WRONLY_CREAT
from ..kernel.process import Body, ProcContext

#: Large-block transfer size used throughout the evaluation (Fig. 5a).
BLOCK = 8192
#: "1 byte" row of Fig. 5a.
TINY = 1


@dataclass(frozen=True)
class AppProfile:
    """One application's workload character.

    ``iters`` is the number of work units at full scale; each unit burns
    ``compute_us`` of CPU and performs the listed syscalls.  ``spawns``
    child processes (compilation steps, for ``make``) are distributed
    evenly across the run; each child performs ``child_units`` work units
    itself using the metadata-heavy recipe.
    """

    name: str
    description: str
    #: unmodified runtime reported in Figure 5(b), seconds
    paper_runtime_s: float
    #: overhead the paper measured, percent (for side-by-side reporting)
    paper_overhead_pct: float
    iters: int
    compute_us: int
    reads_8k: int = 0
    writes_8k: int = 0
    stats: int = 0
    openclose: int = 0
    small_reads: int = 0
    small_writes: int = 0
    spawns: int = 0
    child_units: int = 0

    def scaled_iters(self, scale: float) -> int:
        return max(1, round(self.iters * scale))

    def scaled_spawns(self, scale: float) -> int:
        return 0 if self.spawns == 0 else max(1, round(self.spawns * scale))

    def syscalls_per_iter(self) -> int:
        return (
            self.reads_8k
            + self.writes_8k
            + self.stats
            + 2 * self.openclose
            + self.small_reads
            + self.small_writes
        )


#: File layout every workload run expects inside its working directory.
INPUT_FILE = "input.dat"
OUTPUT_FILE = "output.dat"
META_PREFIX = "meta"  #: meta0, meta1, ... files probed by stat loops
META_FILES = 16


def workload_unit(
    proc: ProcContext,
    profile: AppProfile,
    in_fd: int,
    out_fd: int,
    buf: int,
    unit_index: int,
) -> Body:
    """One work unit: the per-iteration syscall recipe.

    A sub-generator (used via ``yield from``) so both the top-level app
    body and spawned children can share it.
    """
    if profile.compute_us:
        yield proc.compute(us=profile.compute_us)
    for i in range(profile.reads_8k):
        yield proc.sys.pread(in_fd, buf, BLOCK, ((unit_index + i) * BLOCK) % (64 * BLOCK))
    for i in range(profile.writes_8k):
        yield proc.sys.pwrite(out_fd, buf, BLOCK, ((unit_index + i) * BLOCK) % (64 * BLOCK))
    for i in range(profile.stats):
        yield proc.sys.stat(f"{META_PREFIX}{(unit_index + i) % META_FILES}")
    for _ in range(profile.openclose):
        fd = yield proc.sys.open(INPUT_FILE, O_RDONLY)
        yield proc.sys.close(fd)
    for _ in range(profile.small_reads):
        yield proc.sys.pread(in_fd, buf, TINY, 0)
    for _ in range(profile.small_writes):
        yield proc.sys.pwrite(out_fd, buf, TINY, 0)


def app_body(profile: AppProfile, scale: float, child_program: str = "") -> object:
    """Build the top-level program factory for an application run."""

    def factory(proc: ProcContext, args: list[str]) -> Body:
        in_fd = yield proc.sys.open(INPUT_FILE, O_RDONLY)
        out_fd = yield proc.sys.open(OUTPUT_FILE, O_WRONLY_CREAT)
        buf = proc.alloc(BLOCK)
        iters = profile.scaled_iters(scale)
        spawns = profile.scaled_spawns(scale)
        spawn_every = iters // spawns if spawns else 0
        children: list[int] = []
        for unit in range(iters):
            yield from workload_unit(proc, profile, in_fd, out_fd, buf, unit)
            if spawn_every and (unit + 1) % spawn_every == 0 and len(children) < spawns:
                pid = yield proc.sys.spawn(child_program, ())
                if isinstance(pid, int) and pid > 0:
                    children.append(pid)
        for _ in children:
            yield proc.sys.waitpid()
        yield proc.sys.close(in_fd)
        yield proc.sys.close(out_fd)
        return 0

    factory.__name__ = f"app_{profile.name}"
    return factory


def child_body(profile: AppProfile) -> object:
    """Program factory for a spawned child (a compilation step)."""

    def factory(proc: ProcContext, args: list[str]) -> Body:
        in_fd = yield proc.sys.open(INPUT_FILE, O_RDONLY)
        out_fd = yield proc.sys.open(OUTPUT_FILE + ".o", O_WRONLY_CREAT)
        buf = proc.alloc(BLOCK)
        for unit in range(profile.child_units):
            yield from workload_unit(proc, profile, in_fd, out_fd, buf, unit)
        yield proc.sys.close(in_fd)
        yield proc.sys.close(out_fd)
        return 0

    factory.__name__ = f"child_{profile.name}"
    return factory
