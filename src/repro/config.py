"""One home for the reproduction's ``REPRO_*`` environment knobs.

Every runtime switch the test suites, benchmarks, and the fuzzer honor is
parsed here, once, instead of each conftest re-implementing the same
``os.environ.get`` dance:

===========================  =================================================
``REPRO_FAULT_RATE``         per-kind fault probability on the Chirp port
                             (CI's ``test-faulted`` job sets ``0.1``)
``REPRO_FAULT_SEED``         seed for the fault plan and retry jitter
``REPRO_SHARDS``             federation shard count (CI sets ``8``)
``REPRO_REPLICAS``           owners per directory prefix (CI's
                             ``test-replicated`` job sets ``3``)
``REPRO_BLACKOUT``           ``start:end`` op-count window during which one
                             federation shard is blacked out mid-run
``REPRO_SNAPSHOT_FIXTURES``  fork test machines from warm CoW snapshots
``REPRO_BENCH_SMOKE``        CI-sized benchmark iteration counts
``REPRO_CACHE``              fast-lane read-op memoization at the pipeline
                             mouth (CI's ``test-fastlane`` leg sets ``1``)
``REPRO_COALESCE``           client-side frame coalescing: adjacent Chirp
                             frames batch into one wire frame
===========================  =================================================

All readers are *dynamic* — they consult the environment on every call, so
tests can flip a knob with ``monkeypatch.setenv`` and see the change
without reimporting anything.  Import-time constants belong to the caller
(e.g. ``tests/chirp/conftest.py`` snapshots the fault rate once per
session because fixtures must agree with the skip markers built from it).
"""

from __future__ import annotations

import os

#: Default seed for fault plans and retry jitter; any fixed value works,
#: the point is that every consumer agrees on it.
DEFAULT_FAULT_SEED = 20260805


def env_flag(name: str) -> bool:
    """A boolean knob: unset, empty, and ``0`` are off; anything else is on."""
    return os.environ.get(name, "") not in ("", "0")


def _env_number(name: str, default: str, cast) -> float | int:
    """A numeric knob; an empty value counts as unset."""
    return cast(os.environ.get(name, default) or default)


def fault_rate() -> float:
    """Per-kind fault probability injected under the Chirp test suite."""
    return _env_number("REPRO_FAULT_RATE", "0", float)


def fault_seed() -> int:
    """Seed shared by the fault plan and the retry policies surviving it."""
    return _env_number("REPRO_FAULT_SEED", str(DEFAULT_FAULT_SEED), int)


def shard_count() -> int:
    """Federation shard count for federation-aware tests."""
    return _env_number("REPRO_SHARDS", "1", int)


def replica_count() -> int:
    """Replicas per directory prefix (``1`` = today's single-owner mode)."""
    return max(1, _env_number("REPRO_REPLICAS", "1", int))


def blackout_window() -> tuple[int, int] | None:
    """A scheduled shard blackout as a ``start:end`` op-count window.

    ``None`` when unset; the chaos CI job sets e.g. ``REPRO_BLACKOUT=40:120``
    so one replica goes dark mid-run and rejoins before the end.
    """
    raw = os.environ.get("REPRO_BLACKOUT", "")
    if not raw:
        return None
    start, _, end = raw.partition(":")
    window = (int(start), int(end))
    if window[0] < 0 or window[1] <= window[0]:
        raise ValueError(f"REPRO_BLACKOUT window {raw!r} is not start<end")
    return window


def snapshot_fixtures_enabled() -> bool:
    """Whether test fixtures fork machines from warm snapshots."""
    return env_flag("REPRO_SNAPSHOT_FIXTURES")


def bench_smoke() -> bool:
    """CI-sized benchmark runs: set ``REPRO_BENCH_SMOKE=1``."""
    return env_flag("REPRO_BENCH_SMOKE")


def read_cache_enabled() -> bool:
    """Fast-lane memoization of read-only ops at the pipeline mouth."""
    return env_flag("REPRO_CACHE")


def coalesce_enabled() -> bool:
    """Client-side frame coalescing for chunked Chirp transfers."""
    return env_flag("REPRO_COALESCE")

