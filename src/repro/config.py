"""One home for the reproduction's ``REPRO_*`` environment knobs.

Every environment variable the test suites and benchmarks honor is parsed
here, and nowhere else in the package:

===========================  =================================================
``REPRO_FAULT_RATE``         per-kind fault probability on the Chirp port
                             (CI's ``test-faulted`` job sets ``0.1``)
``REPRO_SHARDS``             federation shard count (CI sets ``8``)
``REPRO_REPLICAS``           owners per directory prefix (CI's
                             ``test-replicated`` job sets ``3``)
``REPRO_SNAPSHOT_FIXTURES``  fork test machines from warm CoW snapshots
``REPRO_BENCH_SMOKE``        CI-sized benchmark iteration counts
``REPRO_CACHE``              fast-lane read-op memoization at the pipeline
                             mouth (CI's ``test-fastlane`` leg sets ``1``)
===========================  =================================================

All but ``REPRO_BENCH_SMOKE`` describe a *world*, read together into one
:class:`WorldSpec`.  The package itself never consults them: a world
setting reaches it as an argument (``ChirpServer(read_cache=)``,
``deploy_federation(replicas=, read_cache=)``,
``runner._prepare(use_snapshots=)``, an installed ``FaultPlan``).  The
test harness reads one spec and passes its values on, so one process can
build differently configured worlds side by side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: The seed for the test suites' fault plans and retry jitter; any fixed
#: value works, the point is that every consumer agrees on it.
DEFAULT_FAULT_SEED = 20260805


def _env_flag(name: str) -> bool:
    """A boolean knob: unset, empty, and ``0`` are off; anything else is on."""
    return os.environ.get(name, "") not in ("", "0")


def _env_number(name: str, default: str, cast) -> float | int:
    """A numeric knob; an empty value counts as unset."""
    return cast(os.environ.get(name, default) or default)


@dataclass(frozen=True)
class WorldSpec:
    """How a test world is configured (see the table above); the defaults
    are the plain world."""

    fault_rate: float = 0.0
    shards: int = 1
    replicas: int = 1
    read_cache: bool = False
    snapshot_fixtures: bool = False

    @classmethod
    def from_env(cls) -> WorldSpec:
        """The world the ``REPRO_*`` knobs describe."""
        return cls(
            fault_rate=_env_number("REPRO_FAULT_RATE", "0", float),
            shards=_env_number("REPRO_SHARDS", "1", int),
            replicas=max(1, _env_number("REPRO_REPLICAS", "1", int)),
            read_cache=_env_flag("REPRO_CACHE"),
            snapshot_fixtures=_env_flag("REPRO_SNAPSHOT_FIXTURES"),
        )


def bench_smoke() -> bool:
    """CI-sized benchmark runs: set ``REPRO_BENCH_SMOKE=1``."""
    return _env_flag("REPRO_BENCH_SMOKE")
