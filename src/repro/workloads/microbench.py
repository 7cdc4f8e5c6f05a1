"""Figure 5(a): per-syscall latency microbenchmarks.

"Each entry was measured by a benchmark C program which timed 1000 cycles
of 100,000 iterations of various system calls... Each system call was
performed on an existing file in an ext3 filesystem with the file wholly
in the system buffer cache" (§7).  The simulation is deterministic, so one
cycle of a few thousand iterations yields the exact per-call cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..kernel.fdtable import OpenFlags
from ..kernel.process import Body, ProcContext

BENCH_FILE = "bench.dat"
BLOCK = 8192


@dataclass(frozen=True)
class MicrobenchSpec:
    """One row of Figure 5(a)."""

    name: str
    #: body factory: (iterations) -> program factory
    make_factory: Callable[[int], object]
    #: the paper's approximate unmodified / boxed latencies (µs), read off
    #: Figure 5(a), for side-by-side reporting
    paper_unmodified_us: float
    paper_boxed_us: float
    #: the syscalls one loop iteration performs — the rows of the
    #: ``syscall.latency_ns`` histogram this benchmark is measured from
    #: (per-iteration cost = the sum of these ops' mean latencies)
    ops: tuple[str, ...] = ()


def _loop_factory(per_iter) -> Callable[[int], object]:
    """Wrap a per-iteration sub-generator into a program factory builder."""

    def build(iterations: int) -> object:
        def factory(proc: ProcContext, args: list[str]) -> Body:
            fd = yield proc.sys.open(BENCH_FILE, OpenFlags.O_RDWR)
            buf = proc.alloc(BLOCK)
            for _ in range(iterations):
                yield from per_iter(proc, fd, buf)
            yield proc.sys.close(fd)
            return 0

        return factory

    return build


def _getpid(proc, fd, buf):
    yield proc.sys.getpid()


def _stat(proc, fd, buf):
    yield proc.sys.stat(BENCH_FILE)


def _openclose(proc, fd, buf):
    fd2 = yield proc.sys.open(BENCH_FILE, OpenFlags.O_RDONLY)
    yield proc.sys.close(fd2)


def _read_1(proc, fd, buf):
    yield proc.sys.pread(fd, buf, 1, 0)


def _read_8k(proc, fd, buf):
    yield proc.sys.pread(fd, buf, BLOCK, 0)


def _write_1(proc, fd, buf):
    yield proc.sys.pwrite(fd, buf, 1, 0)


def _write_8k(proc, fd, buf):
    yield proc.sys.pwrite(fd, buf, BLOCK, 0)


#: The seven rows of Figure 5(a), with the paper's approximate values.
MICROBENCHES: tuple[MicrobenchSpec, ...] = (
    MicrobenchSpec("getpid", _loop_factory(_getpid), 0.4, 13.0, ops=("getpid",)),
    MicrobenchSpec("stat", _loop_factory(_stat), 2.2, 27.0, ops=("stat",)),
    MicrobenchSpec(
        "open-close", _loop_factory(_openclose), 4.4, 45.0, ops=("open", "close")
    ),
    MicrobenchSpec("read-1b", _loop_factory(_read_1), 1.0, 17.0, ops=("pread",)),
    MicrobenchSpec("read-8kb", _loop_factory(_read_8k), 4.9, 37.0, ops=("pread",)),
    MicrobenchSpec("write-1b", _loop_factory(_write_1), 1.2, 18.0, ops=("pwrite",)),
    MicrobenchSpec("write-8kb", _loop_factory(_write_8k), 5.4, 40.0, ops=("pwrite",)),
)

MICROBENCH_BY_NAME = {spec.name: spec for spec in MICROBENCHES}
