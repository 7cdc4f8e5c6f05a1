"""The fast lane end to end: memoized reads, batch envelopes, op budgets.

The acceptance bar: the fast lane is a *pure* optimization.  Every
workload profile's staging flow is byte-identical with the read cache
on vs off — on clean wires, under a seeded fault plan, and on
a replicated federation — and a mutation landing between two cached
reads is always visible to the second read, same-shard or cross-shard.
The per-identity quota refuses with EAGAIN, the transient errno the
retry layer already treats as back-off-and-retry.
"""

import pytest

from repro.chirp import CHIRP_PORT, ChirpClient, ChirpError
from repro.core import Admission
from repro.kernel.errno import Errno
from repro.kernel.fdtable import OpenFlags
from repro.net import FaultPlan
from repro.workloads import AMANDA, BLAST, CMS, HF, IBIS, MAKE
from tests.chirp.test_federation import connect_fred as fed_connect
from tests.chirp.test_federation import make_fed_world
from tests.chirp.test_resilience import (
    FRED_DN,
    RETRY,
    connect_fred,
    input_bytes,
    make_world,
    stage_and_run,
)

PROFILES = [AMANDA, BLAST, CMS, HF, IBIS, MAKE]


# ---------------------------------------------------------------------- #
# invalidation races: a mutation between two cached reads
# ---------------------------------------------------------------------- #


def test_mutation_between_two_cached_reads_is_visible():
    cluster, server, wallet = make_world(read_cache=True)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")
    fred.put(b"v1", "/t/f")
    assert fred.stat("/t/f").size == 2
    assert fred.stat("/t/f").size == 2  # served from the cache
    assert server.read_cache.hits >= 1
    fred.truncate("/t/f", 1)  # the race: a mutation between cached reads
    assert fred.stat("/t/f").size == 1  # never the stale verdict
    assert server.read_cache.invalidations >= 1


def test_putfile_between_cached_reads_is_visible():
    cluster, server, wallet = make_world(read_cache=True)
    fred = connect_fred(cluster, wallet, retry=RETRY)
    fred.mkdir("/t")
    fred.put(b"v1", "/t/f")
    assert fred.stat("/t/f").size == 2
    assert fred.stat("/t/f").size == 2  # served from the cache
    assert server.read_cache.hits >= 1
    fred.put(b"version two", "/t/f")  # one keyed putfile
    assert fred.stat("/t/f").size == 11  # never the stale size
    assert fred.get("/t/f") == b"version two"
    # neither cache ever holds file bytes: getfile is not memoized, and
    # the keyed putfile reply is a byte count
    assert all(key[1] != "getfile" for key in server.read_cache._entries)
    assert server._idem_cache
    assert not any(b"version two" in reply for reply in server._idem_cache.values())


def test_descriptor_write_between_cached_reads_is_visible():
    cluster, server, wallet = make_world(read_cache=True)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")
    fred.put(b"1234", "/t/f")
    fd = fred.open("/t/f", OpenFlags.O_WRONLY)
    assert fred.stat("/t/f").size == 4
    assert fred.stat("/t/f").size == 4
    # the mutation arrives through a descriptor, not a path: the fd->path
    # hint must carry the invalidation
    fred.pwrite(fd, b"xxxxxxxx", 0)
    fred.close_fd(fd)
    assert fred.stat("/t/f").size == 8


def test_setacl_between_cached_acl_reads_is_visible():
    cluster, server, wallet = make_world(read_cache=True)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")  # fred's own zone: rwlax includes admin
    assert fred.aclcheck("/t", "w") is True
    assert fred.aclcheck("/t", "w") is True  # memoized verdict
    fred.setacl("/t", "globus:/O=NotreDame/*", "rl")
    # the governing directory's ACL changed: cached verdicts under it died
    assert "globus:/O=NotreDame/*" in fred.getacl("/t")
    assert server.read_cache.invalidations >= 1


def alias_world():
    """A cached server with ``/t/s`` a symlink to ``/t/real``."""
    cluster, server, wallet = make_world(read_cache=True)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")
    fred.mkdir("/t/real")
    fred.mkdir("/t/real/d")
    fred.put(b"x" * 10, "/t/real/f")
    fred.symlink("/t/real", "/t/s")
    return server, fred


def test_put_through_a_symlink_is_visible_by_the_real_name():
    server, fred = alias_world()
    assert fred.stat("/t/real/f").size == 10
    assert fred.stat("/t/real/f").size == 10  # memoized
    fred.put(b"y" * 999, "/t/s/f")
    assert fred.stat("/t/real/f").size == 999
    assert fred.get("/t/real/f") == b"y" * 999


def test_read_through_a_symlink_is_never_memoized():
    server, fred = alias_world()
    entries = len(server.read_cache)
    assert fred.stat("/t/s/f").size == 10
    assert len(server.read_cache) == entries
    fred.put(b"y" * 999, "/t/real/f")  # invalidates by the real name only
    assert fred.stat("/t/s/f").size == 999


def test_descriptor_opened_through_a_symlink_flushes_on_write():
    server, fred = alias_world()
    fd = fred.open("/t/s/f", OpenFlags.O_WRONLY)
    assert fred.stat("/t/real/f").size == 10
    assert fred.stat("/t/real/f").size == 10  # memoized after the open
    fred.pwrite(fd, b"z" * 64, 0)
    fred.close_fd(fd)
    assert fred.stat("/t/real/f").size == 64


def test_setacl_through_a_symlink_is_visible_by_the_real_name():
    server, fred = alias_world()
    fred_id = f"globus:{FRED_DN}"
    assert fred.access("/t/real/d", "w") is True
    assert fred.aclcheck("/t/s/d", "w") is True
    assert fred.access("/t/real/d", "w") is True  # memoized
    fred.setacl("/t/s/d", fred_id, "rl")
    assert fred.access("/t/real/d", "w") is False
    assert fred.aclcheck("/t/s/d", "w") is False
    # and the other way round: a verdict asked through the alias
    assert fred.aclcheck("/t/s", "w") is True
    fred.setacl("/t/real", fred_id, "rlx")
    assert fred.aclcheck("/t/s", "w") is False


def test_restore_flushes_the_cache_with_the_world():
    cluster, server, wallet = make_world(read_cache=True)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")
    fred.put(b"before", "/t/f")
    assert fred.stat("/t/f").size == 6
    snap = server.machine.snapshot()
    fred.put(b"after is longer", "/t/f")
    assert fred.stat("/t/f").size == 15
    server.machine.restore(snap)  # the world rolls back under the server
    # entries must never outlive the world they were read from
    assert fred.stat("/t/f").size == 6
    assert server.read_cache.flushes >= 1


def test_fork_does_not_share_cache_entries_with_the_parent():
    cluster, server, wallet = make_world(read_cache=True)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")
    fred.put(b"parent", "/t/f")
    assert fred.stat("/t/f").size == 6
    entries_before = len(server.read_cache)
    child = server.machine.fork()
    # mutate the forked world below any server: the parent's cache must
    # neither see the change nor be poisoned by it
    task = child.host_task(child.users.credentials_for("dthain"))
    path = server.real_path("/t/f")
    child.write_file(task, path, b"child wrote something longer")
    assert len(server.read_cache) == entries_before
    assert fred.stat("/t/f").size == 6  # parent's world, parent's verdict
    assert child.kcall_x(task, "stat", path).st_size == 28


def test_cross_shard_repair_flushes_replica_caches():
    """Anti-entropy repair writes below the pipeline; the repaired
    replica's memoized verdicts must die with the stale bytes."""
    cluster, federation, wallet = make_fed_world(4, replicas=3, read_cache=True)
    client = fed_connect(cluster, federation, wallet)
    client.mkdir("/d0")
    client.put(b"v1", "/d0/f")
    victim = client.shard_of("/d0")
    raw, shard = client.client_for("/d0")
    assert shard == victim
    assert raw.stat("/d0/f").size == 2
    assert raw.stat("/d0/f").size == 2  # victim's cache is warm
    victim_server = federation.shards[victim].server
    assert victim_server.read_cache.hits >= 1

    federation.blackout_shard(victim, 0, 10**9)
    retry_client = fed_connect(cluster, federation, wallet, retry=RETRY)
    retry_client.put(b"v2 is much longer", "/d0/f")  # quorum write, victim dark
    retry_client.close()
    client.close()
    cluster.network.faults.blackouts = ()

    federation.rejoin_shard(victim)  # repair bypasses the victim's pipeline
    telemetry = federation.shards[victim].telemetry
    assert telemetry.counter_total("fastlane.cache.cross_shard_flushes") == 1

    fresh = fed_connect(cluster, federation, wallet)
    raw, shard = fresh.client_for("/d0")
    assert shard == victim
    # the stale memoized size (2) must not survive the repair
    assert raw.stat("/d0/f").size == 17
    assert raw.get("/d0/f") == b"v2 is much longer"


# ---------------------------------------------------------------------- #
# the batch envelope
# ---------------------------------------------------------------------- #


def test_batch_runs_frames_in_order_and_isolates_slot_failures(world):
    cluster, server, wallet = make_world(read_cache=world.read_cache)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")
    fred.put(b"abc", "/t/f")
    batches, coalesced = server.stats.batches, server.stats.coalesced
    results = fred.batch(
        [
            {"op": "stat", "path": "/t/f"},
            {"op": "stat", "path": "/t/missing"},  # fails in its slot only
            {"op": "readdir", "path": "/t"},
        ]
    )
    assert results[0]["ok"] and results[0]["size"] == 3
    assert not results[1]["ok"]
    assert results[1]["errno"] == int(Errno.ENOENT)
    assert results[2]["ok"] and results[2]["names"] == ["f"]
    assert server.stats.batches == batches + 1
    assert server.stats.coalesced == coalesced + 3


def test_batch_refuses_uncoalescable_and_oversized_envelopes(world):
    from repro.chirp.protocol import BATCH_LIMIT

    cluster, server, wallet = make_world(read_cache=world.read_cache)
    fred = connect_fred(cluster, wallet, retry=None)
    results = fred.batch([{"op": "auth", "method": "unix"}])
    assert not results[0]["ok"]  # auth cannot ride a batch
    assert results[0]["errno"] == int(Errno.EINVAL)
    with pytest.raises(ChirpError) as excinfo:
        fred.batch([{"op": "whoami"}] * (BATCH_LIMIT + 1))
    assert excinfo.value.errno is Errno.EINVAL


@pytest.mark.parametrize(
    "slot",
    [
        {"op": "getfile", "path": "/t/f"},
        {"op": "putfile", "path": "/t/f", "data": b"overwritten", "mode": 0o644},
    ],
    ids=["getfile", "putfile"],
)
def test_batch_refuses_whole_file_slots(slot, world):
    from repro.chirp.protocol import batch_request
    from repro.net.rpc import ProtocolError

    cluster, server, wallet = make_world(read_cache=world.read_cache)
    fred = connect_fred(cluster, wallet, retry=None)
    fred.mkdir("/t")
    fred.put(b"abc", "/t/f")
    results = fred.batch([{"op": "stat", "path": "/t/f"}, slot])
    assert results[0]["ok"] and results[0]["size"] == 3
    # a keyed envelope stores its reply: file bytes may not ride in it
    assert results[1] == {
        "ok": False,
        "errno": int(Errno.EINVAL),
        "error": "frame cannot be coalesced",
    }
    assert fred.get("/t/f") == b"abc"  # the refused putfile never ran
    with pytest.raises(ProtocolError):
        batch_request([slot])


def test_batch_requires_an_authenticated_connection(world):
    cluster, server, wallet = make_world(read_cache=world.read_cache)
    client = ChirpClient.connect(
        cluster.network, "laptop.cs.nowhere.edu", "server1.nowhere.edu"
    )
    with pytest.raises(ChirpError) as excinfo:
        client.batch([{"op": "whoami"}])
    assert excinfo.value.errno is Errno.EACCES


def test_batch_counts_every_inner_frame_as_an_op(world):
    cluster, server, wallet = make_world(read_cache=world.read_cache)
    fred = connect_fred(cluster, wallet, retry=None)
    before = server.stats.ops
    fred.batch([{"op": "whoami"}, {"op": "whoami"}, {"op": "whoami"}])
    assert server.stats.ops == before + 3  # accounting matches singles


# ---------------------------------------------------------------------- #
# transfers under the cache: byte-identical, faults included
# ---------------------------------------------------------------------- #


def test_transfer_survives_faults_and_a_restart():
    data = input_bytes(BLAST)  # multi-chunk: CHUNK + 4321 bytes
    plan = FaultPlan.uniform(seed=20260808, rate=0.10, ports=(CHIRP_PORT,))
    cluster, server, wallet = make_world(plan, read_cache=True)
    fred = connect_fred(cluster, wallet)
    fred.mkdir("/t")
    before = fred.stats.retries
    plan.force("restart")  # the server crashes under the put
    assert fred.put(data, "/t/blob") == len(data)
    after_put = fred.stats.retries
    plan.force("drop")  # and the get's frame dies on the wire
    assert fred.get("/t/blob") == data
    assert plan.stats.total() > 0, "the plan never actually fired"
    # each transfer is one op, retried whole; no descriptor to revive
    assert after_put > before and fred.stats.retries > after_put
    assert fred.stats.transfer_restarts == 0


# ---------------------------------------------------------------------- #
# per-identity op budgets: the EAGAIN contract
# ---------------------------------------------------------------------- #


def quota_world(world):
    """A server granting each identity 50 ops/s with a burst of 4."""
    return make_world(read_cache=world.read_cache, limits=Admission(rate_per_s=50.0, burst=4))


def test_quota_exhaustion_surfaces_as_eagain(world):
    cluster, server, wallet = quota_world(world)
    fred = connect_fred(cluster, wallet, retry=None)
    with pytest.raises(ChirpError) as excinfo:
        for _ in range(64):
            fred.stat("/")
    assert excinfo.value.errno is Errno.EAGAIN
    assert "quota exceeded" in str(excinfo.value)
    assert server.limits.over_budget >= 1


def test_retrying_client_rides_out_the_quota(world):
    # EAGAIN is a transient errno: the retry policy backs off, simulated
    # time passes, the bucket refills — the op eventually lands.  That
    # loop is the whole contract.
    cluster, server, wallet = quota_world(world)
    fred = connect_fred(cluster, wallet, retry=RETRY)
    for _ in range(32):
        fred.stat("/")
    assert server.limits.over_budget >= 1  # the budget really did bite
    assert server.limits.admitted >= 32


# ---------------------------------------------------------------------- #
# the acceptance sweep: six workloads, byte-identical either way
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_every_workload_is_byte_identical_with_the_fast_lane_on(profile):
    cluster, _, wallet = make_world(read_cache=False)
    want = stage_and_run(connect_fred(cluster, wallet, retry=None), profile)
    assert want["status"] == 0 and want["size"] == len(input_bytes(profile))

    cluster, server, wallet = make_world(read_cache=True)
    got = stage_and_run(connect_fred(cluster, wallet, retry=None), profile)
    assert server.read_cache is not None  # the flag really armed it
    assert got == want  # the fast lane must not be observable in results


def test_workload_under_faults_with_fast_lane_matches_clean_run():
    cluster, _, wallet = make_world(read_cache=False)
    want = stage_and_run(connect_fred(cluster, wallet, retry=None), CMS)

    plan = FaultPlan.uniform(
        seed=20260808, rate=0.10, restart_at_ops=(8,), ports=(CHIRP_PORT,)
    )
    cluster, server, wallet = make_world(plan, read_cache=True)
    got = stage_and_run(connect_fred(cluster, wallet), CMS)
    assert plan.stats.total() > 0
    assert got == want
