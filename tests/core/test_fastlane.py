"""The fast lane's interceptors in isolation: ReadCache and IdentityQuota.

The cache's whole correctness story is invalidation — path relations,
governing-directory scope for ``setacl``, descriptor hints, world-epoch
flushes — and the quota's is the EAGAIN-before-any-work contract.  These
tests drive both against a toy registry so every rule is pinned without
a server in the loop.
"""

from collections import OrderedDict

import pytest

from repro.core.ops import CACHEABLE_OPS, OpRegistry, OpSpec, PathArg
from repro.core.pipeline import (
    CROSSED_SYMLINK,
    BoundPath,
    IdentityQuota,
    Operation,
    Pipeline,
    ReadCache,
)
from repro.core.telemetry import Telemetry
from repro.kernel.errno import Errno, KernelError
from repro.kernel.fdtable import OpenFlags
from tests.helpers import paths_related


def read_op(name, sub, identity="fred", **args):
    """A cacheable read op bound to one path."""
    spec = PathArg("path")
    op = Operation(name=name, surface="test", args={"path": sub, **args})
    op.identity = identity
    op.paths = [BoundPath(spec=spec, raw=sub, full=sub, sub=sub)]
    return op


def write_op(name, sub, **args):
    op = read_op(name, sub, **args)
    return op


def run_cached(cache, op, handler):
    return cache(op, None, handler)


# -- path relations ---------------------------------------------------------- #


def test_paths_related_equal_prefix_and_unrelated():
    assert paths_related("/a/b", "/a/b")
    assert paths_related("/a/b", "/a")  # parent mutated: child verdict stale
    assert paths_related("/a", "/a/b")  # child mutated: parent stat stale
    assert not paths_related("/a/bb", "/a/b")  # sibling with shared prefix
    assert not paths_related("/x", "/y")


def test_index_drops_the_same_entries_as_the_relation():
    cache = ReadCache()
    cached = ("/", "/a", "/a/b", "/a/bb", "/a/b/c", "/ab", "/x")
    for sub in cached:
        run_cached(cache, read_op("stat", sub), lambda: {})
    run_cached(cache, write_op("unlink", "/a/b"), lambda: {})
    # "/a/bb" is a sibling, not a child, and "/" is nobody's ancestor
    assert {key[2][0] for key in cache._entries} == {"/", "/a/bb", "/ab", "/x"}
    assert set(cache._by_path) == {"/", "/a/bb", "/ab", "/x"}


# -- hit/miss mechanics ------------------------------------------------------ #


def test_cache_hit_skips_the_handler_and_copies_the_result():
    cache = ReadCache()
    calls = []
    handler = lambda: calls.append(1) or {"size": 7}
    first = run_cached(cache, read_op("stat", "/f"), handler)
    second = run_cached(cache, read_op("stat", "/f"), handler)
    assert first == second == {"size": 7}
    assert len(calls) == 1
    assert (cache.hits, cache.misses) == (1, 1)
    # the hit is a *copy*: a caller mutating its reply must not poison
    # the memoized value
    second["size"] = 999
    assert run_cached(cache, read_op("stat", "/f"), handler) == {"size": 7}


def test_cache_key_is_sensitive_to_identity_op_and_args():
    cache = ReadCache()
    run_cached(cache, read_op("stat", "/f"), lambda: {"v": 1})
    assert cache.misses == 1
    # different identity, op name, or non-path argument: all distinct keys
    run_cached(cache, read_op("stat", "/f", identity="wilma"), lambda: {"v": 2})
    run_cached(cache, read_op("lstat", "/f"), lambda: {"v": 3})
    run_cached(cache, read_op("access", "/f", letters="r"), lambda: {"v": 4})
    run_cached(cache, read_op("access", "/f", letters="w"), lambda: {"v": 5})
    assert cache.misses == 5 and cache.hits == 0


def test_errors_are_never_cached():
    cache = ReadCache()

    def enoent():
        raise KernelError(Errno.ENOENT, "no such file")

    for _ in range(2):
        with pytest.raises(KernelError):
            run_cached(cache, read_op("stat", "/gone"), enoent)
    # ENOENT-then-create must stay visible: the miss path ran twice
    assert cache.hits == 0
    assert run_cached(cache, read_op("stat", "/gone"), lambda: {"v": 1}) == {"v": 1}


def test_unhashable_argument_bypasses_the_cache():
    cache = ReadCache()
    op = read_op("stat", "/f", weird=["not", "hashable"])
    assert run_cached(cache, op, lambda: {"v": 1}) == {"v": 1}
    assert len(cache) == 0 and cache.misses == 0


def test_lru_eviction_respects_capacity():
    cache = ReadCache(capacity=2)
    run_cached(cache, read_op("stat", "/a"), lambda: {"v": 1})
    run_cached(cache, read_op("stat", "/b"), lambda: {"v": 2})
    run_cached(cache, read_op("stat", "/a"), lambda: {"v": 1})  # refresh /a
    run_cached(cache, read_op("stat", "/c"), lambda: {"v": 3})  # evicts /b
    assert len(cache) == 2
    run_cached(cache, read_op("stat", "/b"), lambda: {"v": 2})
    assert cache.misses == 4  # /b was re-fetched


# -- invalidation ------------------------------------------------------------ #


def test_mutation_invalidates_same_ancestor_and_descendant_paths():
    cache = ReadCache()
    for sub in ("/d", "/d/f", "/d/f/g", "/other"):
        run_cached(cache, read_op("stat", sub), lambda: {"p": sub})
    run_cached(cache, write_op("unlink", "/d/f"), lambda: {})
    # /d (ancestor), /d/f (same), /d/f/g (descendant) all dropped
    assert len(cache) == 1
    assert cache.invalidations == 3
    run_cached(cache, read_op("stat", "/other"), lambda: {"p": 0})
    assert cache.hits == 1


class NoScanDict(OrderedDict):
    """An entry table that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("the read cache scanned its entries")


def test_unrelated_mutation_never_scans_a_full_cache():
    cache = ReadCache(capacity=4096)
    cache._entries = NoScanDict()
    for i in range(4096):
        run_cached(cache, read_op("stat", f"/d{i % 64}/f{i}"), lambda: {})
    assert len(cache) == 4096
    run_cached(cache, write_op("unlink", "/elsewhere/f"), lambda: {})
    assert len(cache) == 4096 and cache.invalidations == 0
    # a related mutation drops only its subtree, still without a scan
    run_cached(cache, write_op("rmdir", "/d7"), lambda: {})
    assert len(cache) == 4096 - 64 and cache.invalidations == 64


def test_invalidation_counter_counts_dropped_entries_like_the_attribute():
    telemetry = Telemetry()
    cache = ReadCache(telemetry=telemetry)
    for sub in ("/d", "/d/f", "/d/g", "/e", "/e/f"):
        run_cached(cache, read_op("stat", sub), lambda: {})
    run_cached(cache, write_op("unlink", "/d/f"), lambda: {})  # drops 2
    run_cached(cache, write_op("exec", "/bin/sim"), lambda: {})  # drops 3
    assert cache.invalidations == 5
    assert telemetry.counter_total("fastlane.cache.invalidations") == 5


def test_mutation_invalidates_even_when_the_handler_fails():
    cache = ReadCache()
    run_cached(cache, read_op("stat", "/d/f"), lambda: {"v": 1})

    def boom():
        raise KernelError(Errno.EIO, "partial write then failure")

    with pytest.raises(KernelError):
        run_cached(cache, write_op("truncate", "/d/f"), boom)
    assert len(cache) == 0


def test_readonly_open_does_not_invalidate_but_writable_open_does():
    cache = ReadCache()
    run_cached(cache, read_op("stat", "/f"), lambda: {"v": 1})
    ro = write_op("open", "/f", flags=int(OpenFlags.O_RDONLY))
    run_cached(cache, ro, lambda: {"fd": 3})
    assert len(cache) == 1
    wr = write_op("open", "/f", flags=int(OpenFlags.O_WRONLY))
    run_cached(cache, wr, lambda: {"fd": 4})
    assert len(cache) == 0


def test_setacl_invalidates_from_the_governing_directory_down():
    cache = ReadCache()
    for sub in ("/d", "/d/f", "/d/g", "/e"):
        run_cached(cache, read_op("getacl", sub), lambda: {"acl": sub})
    # setacl on the *file* /d/f: the monitor resolves the governing dir
    # /d into scratch, so every verdict under /d is dropped
    op = write_op("setacl", "/d/f")
    op.scratch["acl_dir"] = "/d"
    run_cached(cache, op, lambda: {})
    assert len(cache) == 1  # only /e survives


def test_fd_write_invalidates_via_the_scratch_hint():
    cache = ReadCache()
    run_cached(cache, read_op("stat", "/d/f"), lambda: {"v": 1})
    run_cached(cache, read_op("stat", "/e"), lambda: {"v": 2})
    op = Operation(name="pwrite", surface="test", args={"fd": 3})
    op.identity = "fred"
    op.scratch["fastlane_paths"] = ["/d/f"]
    run_cached(cache, op, lambda: {"count": 4})
    assert len(cache) == 1  # /e survives, /d/f dropped


def test_fd_write_with_unknown_path_flushes_everything():
    cache = ReadCache()
    run_cached(cache, read_op("stat", "/a"), lambda: {"v": 1})
    run_cached(cache, read_op("stat", "/b"), lambda: {"v": 2})
    op = Operation(name="pwrite", surface="test", args={"fd": 3})
    op.identity = "fred"
    op.scratch["fastlane_paths"] = [None]  # the surface lost track
    run_cached(cache, op, lambda: {"count": 4})
    assert len(cache) == 0 and cache.flushes == 1


def test_exec_flushes_everything():
    cache = ReadCache()
    run_cached(cache, read_op("stat", "/unrelated"), lambda: {"v": 1})
    run_cached(cache, write_op("exec", "/bin/sim"), lambda: {"status": 0})
    assert len(cache) == 0 and cache.flushes == 1


def test_ops_that_crossed_a_symlink_are_not_stored_and_flush():
    cache = ReadCache()
    run_cached(cache, read_op("stat", "/real/f"), lambda: {"v": 1})
    alias = read_op("stat", "/s/f")
    alias.scratch[CROSSED_SYMLINK] = True
    run_cached(cache, alias, lambda: {"v": 1})
    assert len(cache) == 1 and cache.misses == 2  # the alias read was not kept
    write = write_op("truncate", "/s/f")
    write.scratch[CROSSED_SYMLINK] = True
    run_cached(cache, write, lambda: {})
    # /s/f names /real/f under another path: only a flush is sound
    assert len(cache) == 0 and cache.flushes == 1


def test_epoch_change_flushes_the_cache():
    epoch = [1]
    cache = ReadCache(epoch_source=lambda: epoch[0])
    run_cached(cache, read_op("stat", "/f"), lambda: {"v": 1})
    run_cached(cache, read_op("stat", "/f"), lambda: {"v": 1})
    assert cache.hits == 1
    epoch[0] += 1  # the world was restored out from under us
    run_cached(cache, read_op("stat", "/f"), lambda: {"v": 2})
    assert cache.flushes == 1 and cache.misses == 2


def test_cacheable_set_matches_ops_declaration():
    assert "stat" in CACHEABLE_OPS and "getacl" in CACHEABLE_OPS
    assert "open" not in CACHEABLE_OPS and "setacl" not in CACHEABLE_OPS


# -- per-identity quota ------------------------------------------------------ #


class FakeClock:
    def __init__(self):
        self.now_ns = 0

    def advance(self, ns):
        self.now_ns += ns


def quota_op(name="stat", identity="fred"):
    op = Operation(name=name, surface="test")
    op.identity = identity
    op.spec = OpSpec(name, lambda op, ctx: None)
    return op


def test_quota_rejects_past_burst_with_eagain_and_the_retry_contract():
    clock = FakeClock()
    quota = IdentityQuota(rate_per_s=2.0, burst=3, clock=clock)
    for _ in range(3):
        assert quota(quota_op(), None, lambda: "ok") == "ok"
    with pytest.raises(KernelError) as exc_info:
        quota(quota_op(), None, lambda: "ok")
    assert exc_info.value.errno is Errno.EAGAIN
    assert "quota exceeded for fred" in str(exc_info.value)
    assert quota.stats.rejected == 1
    # the contract: backing off (simulated time passing) refills the
    # bucket, so a retrying client gets through
    clock.advance(500_000_000)  # 0.5s at 2 tokens/s -> one token back
    assert quota(quota_op(), None, lambda: "ok") == "ok"


def test_quota_meters_each_identity_separately():
    clock = FakeClock()
    quota = IdentityQuota(rate_per_s=1.0, burst=1, clock=clock)
    assert quota(quota_op(identity="fred"), None, lambda: "ok") == "ok"
    with pytest.raises(KernelError):
        quota(quota_op(identity="fred"), None, lambda: "ok")
    # wilma's bucket is untouched by fred's exhaustion
    assert quota(quota_op(identity="wilma"), None, lambda: "ok") == "ok"
    assert quota.tokens("wilma") < 1.0 <= quota.tokens("heidi")


def test_quota_rejection_spends_no_handler_work():
    clock = FakeClock()
    quota = IdentityQuota(rate_per_s=1.0, burst=1, clock=clock)
    quota(quota_op(), None, lambda: "ok")
    ran = []
    with pytest.raises(KernelError):
        quota(quota_op(), None, lambda: ran.append(1))
    assert not ran


def test_quota_exempts_pre_auth_ops():
    clock = FakeClock()
    quota = IdentityQuota(rate_per_s=1.0, burst=1, clock=clock)
    op = quota_op(name="auth")
    op.spec = OpSpec("auth", lambda op, ctx: None, pre_auth=True)
    for _ in range(5):  # far past burst, never rejected
        assert quota(op, None, lambda: "ok") == "ok"
    assert quota.stats.rejected == 0


def test_quota_snapshot_reports_exhausted_identities():
    clock = FakeClock()
    quota = IdentityQuota(rate_per_s=1.0, burst=1, clock=clock)
    quota(quota_op(identity="fred"), None, lambda: "ok")
    snap = quota.snapshot()
    assert snap["exhausted"] == ["fred"]
    assert snap["admitted"] == 1 and snap["burst"] == 1


# -- pipeline integration ---------------------------------------------------- #


def test_pipeline_stats_reports_the_fastlane_section():
    registry = OpRegistry()
    registry.register(OpSpec("noop", lambda op, ctx: None))
    cache = ReadCache()
    quota = IdentityQuota(rate_per_s=1.0, burst=8, clock=FakeClock())
    pipeline = Pipeline(registry, [quota, cache], cache=cache, quota=quota)
    pipeline.run(Operation(name="noop", surface="test", identity="fred"), None)
    stats = pipeline.stats()["fastlane"]
    assert stats["cache"]["entries"] == 0
    assert stats["quota"]["admitted"] == 1


def test_plain_pipeline_stats_has_no_fastlane_section():
    registry = OpRegistry()
    registry.register(OpSpec("noop", lambda op, ctx: None))
    assert "fastlane" not in Pipeline(registry).stats()
