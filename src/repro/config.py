"""One home for the reproduction's ``REPRO_*`` environment knobs.

Every environment variable the benchmarks honor is parsed here, and
nowhere else in the package:

===========================  =================================================
``REPRO_BENCH_SMOKE``        CI-sized benchmark iteration counts
===========================  =================================================

No world setting is a knob.  The package takes a fault plan, a read
cache, or a shard or replica count as an argument, and the test suite
names the worlds it checks as test parameters.
"""

from __future__ import annotations

import os

#: The seed for the test suites' fault plans and retry jitter; any fixed
#: value works, the point is that every consumer agrees on it.
DEFAULT_FAULT_SEED = 20260805


def _env_flag(name: str) -> bool:
    """A boolean knob: unset, empty, and ``0`` are off; anything else is on."""
    return os.environ.get(name, "") not in ("", "0")


def bench_smoke() -> bool:
    """CI-sized benchmark runs: set ``REPRO_BENCH_SMOKE=1``."""
    return _env_flag("REPRO_BENCH_SMOKE")
