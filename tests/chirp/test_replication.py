"""Replicated federation: quorum writes, shard failover, anti-entropy repair.

The acceptance bar (ISSUE 9): every workload profile is byte-identical at
``REPRO_REPLICAS=3`` vs one replica — *including* a run where one replica
is blacked out mid-flight and rejoins (repaired) before the end, under a
seeded 10% fault plan.  Around that sweep: placement unit-tests, failover
reads, missed-write replay (read repair), quorum arithmetic, tolerant
teardown, suspect demotion, and the server-side repair path.
"""

import pytest

from repro.chirp import (
    CHIRP_PORT,
    CatalogRecord,
    ChirpError,
    ShardInfo,
    ShardMap,
    advertise,
    quorum,
    route_order,
)
from repro.chirp.server import read_file
from repro.kernel.errno import Errno
from repro.net import FaultPlan
from repro.workloads import AMANDA, BLAST, CMS, HF, IBIS, MAKE
from tests.chirp.conftest import FAULT_RATE, FAULT_SEED
from tests.chirp.test_federation import (
    FED,
    MANY,
    RETRY,
    connect_fred,
    make_fed_world,
)
from tests.chirp.test_resilience import input_bytes, stage_and_run

#: Replicated worlds need room for k=3 plus at least one non-owner.
SHARDS = max(MANY, 4)
#: The fault rate the chaos sweep runs under: the CI knob when set, the
#: ISSUE's 10% bar otherwise — a clean-wires run still drills the blackout.
CHAOS_RATE = FAULT_RATE if FAULT_RATE > 0 else 0.10
#: Where the mid-run outage sits on the fault plan's op counter: every
#: workload is drilled early (keeping its bare test id) and late.
DEFAULT_WINDOW = (20, 90)
LATE_WINDOW = (40, 120)
ALL = (AMANDA, BLAST, CMS, HF, IBIS, MAKE)
#: AMANDA's drill ends near op 43 below 8 shards, before a late outage
SHORT_RUN = pytest.mark.skipif(SHARDS < 8, reason="the run ends before the outage")
DRILLS = [pytest.param(p, DEFAULT_WINDOW, id=p.name) for p in ALL] + [
    pytest.param(p, LATE_WINDOW, id=f"{p.name}-40:120", marks=SHORT_RUN if p is AMANDA else ())
    for p in ALL
]


def replicated_world(plan=None, replicas=3):
    return make_fed_world(SHARDS, plan, replicas=replicas)


def manifest_subtree(server, prefix):
    """One top-level prefix's slice of a shard's export manifest."""
    root = "/" + prefix
    return {
        path: entry
        for path, entry in server.export_manifest().items()
        if path == root or path.startswith(root + "/")
    }


def owners_of(federation, prefix):
    return [s.name for s in federation.placement().replicas_for_prefix(prefix)]


def lift_blackouts(cluster):
    cluster.network.faults.blackouts = ()


# ---------------------------------------------------------------------- #
# placement: successor sets on the same ring
# ---------------------------------------------------------------------- #


def _records(n):
    return [
        CatalogRecord(name=f"s{i}", hostname=f"s{i}", port=CHIRP_PORT, owner="k")
        for i in range(n)
    ]


def test_replica_sets_are_successor_placed_and_nested():
    single = ShardMap.from_records("pool", 1, _records(5), replicas=1)
    triple = ShardMap.from_records("pool", 1, _records(5), replicas=3)
    for prefix in [f"d{i}" for i in range(32)]:
        replicas = triple.replicas_for_prefix(prefix)
        names = [s.name for s in replicas]
        assert len(set(names)) == 3  # k distinct owners
        # the primary is exactly the single-owner map's choice: k=1 is a
        # special case of the placement, not a different algorithm
        assert names[0] == single.shard_for_prefix(prefix).name
        assert (single.replicas_for_prefix(prefix)[0].name,) == (names[0],)


def test_replica_count_clamps_to_the_shard_count():
    shard_map = ShardMap.from_records("pool", 1, _records(2), replicas=3)
    assert len(shard_map.replicas_for_prefix("d0")) == 2


def test_quorum_arithmetic_is_a_strict_majority():
    assert [quorum(k) for k in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]


def test_route_order_demotes_suspects_but_keeps_placement_order():
    a, b, c = (
        ShardInfo(name="a", hostname="a", suspect=True),
        ShardInfo(name="b", hostname="b"),
        ShardInfo(name="c", hostname="c"),
    )
    assert route_order((a, b, c)) == (b, c, a)
    assert route_order((b, a, c)) == (b, c, a)
    assert route_order((b, c, a)) == (b, c, a)


# ---------------------------------------------------------------------- #
# the acceptance sweep: k=3 vs k=1, with a replica dying mid-run
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("profile, window", DRILLS)
def test_every_workload_is_byte_identical_with_a_replica_dying_mid_run(profile, window):
    # the reference: one replica per prefix, perfect wires
    cluster, federation, wallet = replicated_world(replicas=1)
    client = connect_fred(cluster, federation, wallet)
    want = stage_and_run(client, profile)
    client.close()
    assert want["status"] == 0 and want["size"] == len(input_bytes(profile))

    # the drill: three replicas, a seeded fault plan, and the workload
    # prefix's *primary* blacked out for a mid-run op window
    plan = FaultPlan.uniform(seed=FAULT_SEED, rate=CHAOS_RATE, ports=(CHIRP_PORT,))
    cluster, federation, wallet = replicated_world(plan, replicas=3)
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    work = f"/{profile.name.lower().replace(' ', '-')}"
    victim = client.shard_of(work)
    federation.blackout_shard(victim, *window)

    got = stage_and_run(client, profile)
    client.close()

    assert plan.stats.injected.get("blackout", 0) > 0, "the outage never hit"
    assert got == want  # replication and the outage are both unobservable

    # the rejoin: anti-entropy pulls whatever the victim still misses
    # from its replica peers, after which its export is byte-identical
    federation.rejoin_shard(victim)
    prefix = work.lstrip("/")
    owners = owners_of(federation, prefix)
    assert victim == owners[0]
    donor = owners[1]
    assert manifest_subtree(
        federation.shards[victim].server, prefix
    ) == manifest_subtree(federation.shards[donor].server, prefix)


# ---------------------------------------------------------------------- #
# failover reads and read repair
# ---------------------------------------------------------------------- #


def test_failover_read_serves_from_a_replica_while_the_primary_is_dark():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    payload = input_bytes(AMANDA)[:512]
    client.mkdir("/d0")
    client.put(payload, "/d0/f")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)

    assert client.get("/d0/f") == payload  # a peer answered
    assert client.readdir("/d0") == ["f"]
    assert client.stats.failover_reads >= 1
    assert client.stats.routed[victim] >= 1  # the primary was tried first


def test_a_dark_replica_misses_writes_and_replays_them_before_serving():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    client.mkdir("/d0")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    payload = b"written while one replica was dark"
    client.put(payload, "/d0/f")  # quorum 2/3: succeeds, victim misses it
    assert client.stats.quorum_writes >= 1
    assert client.stats.missed_writes >= 1
    assert victim in client._missed

    lift_blackouts(cluster)
    # the next op that touches the victim replays its missed writes first
    assert client.get("/d0/f") == payload
    assert client.stats.read_repairs == 1
    assert victim not in client._missed
    # and the bytes really are on the victim now, not just its peers
    raw, shard = client.client_for("/d0")
    assert shard == victim
    assert raw.get("/d0/f") == payload


def test_missed_writes_replay_in_order_when_the_next_write_arrives():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    client.mkdir("/d0")  # both missed: the put depends on the mkdir
    client.put(b"x", "/d0/f")
    lift_blackouts(cluster)

    client.put(b"y", "/d0/g")  # write path must replay before applying
    assert client.stats.read_repairs == 1
    raw, _shard = client.client_for("/d0")
    assert sorted(raw.readdir("/d0")) == ["f", "g"]


def test_quorum_write_fails_with_eagain_when_a_majority_is_dark():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    owners = client.replica_names("/q")
    assert len(owners) == 3
    for name in owners[1:]:
        federation.blackout_shard(name, 0, 10**9)
    with pytest.raises(ChirpError) as info:
        client.mkdir("/q")
    assert info.value.errno is Errno.EAGAIN
    assert client.stats.quorum_failures == 1
    assert client.stats.missed_writes == 2  # both dark peers owe the mkdir


def test_a_definite_error_outvotes_nothing_reads_stay_exact():
    # replicas are deterministic, so a definite error (ENOENT) from the
    # first live replica IS the answer — failover is only for silence
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    with pytest.raises(ChirpError) as info:
        client.stat("/nowhere/nothing")
    assert info.value.errno is Errno.ENOENT
    assert client.stats.failover_reads == 0


def test_root_readdir_and_setacl_tolerate_one_dark_shard():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    for i in range(8):
        client.mkdir(f"/d{i}")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    # the union listing still covers every prefix: replica peers list
    # everything the dark shard owns
    assert client.readdir("/") == sorted(f"d{i}" for i in range(8))
    # root policy administration logs the dark shard instead of failing
    client.setacl("/", "globus:/O=NotreDame/*", "rl")
    assert victim in client._missed


def test_close_with_dead_sessions_closes_the_rest_and_never_raises():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    for i in range(8):
        client.mkdir(f"/d{i}")
    assert len(client._clients) >= 2
    # kill one shard outright, and plant a session whose goodbye explodes
    name, deployment = sorted(federation.shards.items())[0]
    cluster.crash_server(deployment.server.hostname, deployment.server.port)

    class ExplodingSession:
        def close(self):
            raise ChirpError(Errno.EPIPE, "goodbye lost")

    client._clients["zz-exploding"] = ExplodingSession()
    client.close()  # must not raise
    assert client._clients == {} and client._missed == {}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the missed-write log is per client: a returning replica serves "
    "stale data to every other client (ROADMAP item 1)",
)
def test_stale_read_after_a_quorum_write():
    # explicit world: the same in every CI leg, no fault plan, no cache
    cluster, federation, wallet = make_fed_world(4, replicas=3, read_cache=False)
    a = connect_fred(cluster, federation, wallet, retry=RETRY)
    a.mkdir("/d0")
    a.put(b"v0", "/d0/f")
    primary = a.shard_of("/d0")
    federation.blackout_shard(primary, 0, 10**9)
    a.put(b"from-a", "/d0/f")  # quorum 2/3: the primary misses it
    b = connect_fred(cluster, federation, wallet, retry=RETRY)
    b.put(b"from-b", "/d0/f")  # the last acknowledged write
    b.close()
    lift_blackouts(cluster)

    # today a fresh reader gets v0 from the primary: two acknowledged
    # writes are invisible
    assert connect_fred(cluster, federation, wallet).get("/d0/f") == b"from-b"
    a.stat("/d0")  # today A replays its own missed put onto the primary...
    # ...which then serves from-a while both peers hold from-b
    assert connect_fred(cluster, federation, wallet).get("/d0/f") == b"from-b"
    owners = [federation.shards[name].server for name in owners_of(federation, "d0")]
    assert {read_file(s.fs, s.real_path("/d0/f")) for s in owners} == {b"from-b"}


# ---------------------------------------------------------------------- #
# suspect demotion: routing around a likely-dead shard for free
# ---------------------------------------------------------------------- #


def test_a_suspect_shard_is_demoted_so_reads_never_pay_a_failover():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    client.mkdir("/d0")
    client.put(b"demoted", "/d0/f")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    # the victim misses its heartbeat; everyone else keeps reporting
    cluster.clock.advance(federation.catalog.suspect_ns + 1)
    for name, live in federation.shards.items():
        if name != victim:
            advertise(
                cluster.network, live.server.hostname, live.server,
                federation.catalog_host, federation=FED, weight=live.weight,
            )
    assert client.refresh_map() is True  # suspicion bumped the version
    flags = {s.name: s.suspect for s in client.shard_map.shards}
    assert flags[victim] is True
    before = client.stats.failover_reads
    assert client.get("/d0/f") == b"demoted"  # a peer is tried first now
    assert client.stats.failover_reads == before  # no failover was needed


# ---------------------------------------------------------------------- #
# anti-entropy repair: a rejoining shard converges server-side
# ---------------------------------------------------------------------- #


def test_rejoin_repairs_a_dark_shard_from_its_replica_peers():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    client.mkdir("/d0")
    client.put(b"old bytes", "/d0/keep")
    client.put(b"doomed", "/d0/tmp")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    # mutations the victim sleeps through — then the client goes away,
    # taking its missed-write log with it: only server-side anti-entropy
    # can converge the victim now
    client.put(b"new bytes", "/d0/late")
    client.mkdir("/d0/sub")
    client.put(b"nested", "/d0/sub/deep")
    client.symlink("/d0/keep", "/d0/ln")
    client.unlink("/d0/tmp")
    client.setacl("/", "globus:/O=NotreDame/*", "rl")
    client.close()

    totals = federation.rejoin_shard(victim)
    assert totals["copied"] >= 3  # late, sub/deep, and the root ACL
    assert totals["removed"] >= 1  # the unlinked tmp
    donor = [n for n in owners_of(federation, "d0") if n != victim][0]
    assert manifest_subtree(
        federation.shards[victim].server, "d0"
    ) == manifest_subtree(federation.shards[donor].server, "d0")
    telemetry = federation.shards[victim].telemetry
    assert telemetry.counter_total("repl.repairs") == 1
    assert telemetry.counter_total("repl.repair_bytes") > 0

    # a fresh client reads the repaired replica directly: same bytes,
    # same policy surface
    lift_blackouts(cluster)
    fresh = connect_fred(cluster, federation, wallet)
    raw, shard = fresh.client_for("/d0")
    assert shard == victim
    assert raw.get("/d0/late") == b"new bytes"
    assert raw.get("/d0/sub/deep") == b"nested"
    assert raw.readlink("/d0/ln").endswith("/d0/keep")
    assert "globus:/O=NotreDame/*" in raw.getacl("/")
    with pytest.raises(ChirpError):
        raw.stat("/d0/tmp")


def test_repair_is_idempotent_and_scoped_to_owned_prefixes():
    cluster, federation, wallet = replicated_world()
    client = connect_fred(cluster, federation, wallet)
    for i in range(8):
        client.mkdir(f"/d{i}")
        client.put(bytes([i]) * 64, f"/d{i}/f")
    client.close()
    name = sorted(federation.shards)[0]
    first = federation.repair_shard(name)
    # every shard already converged (nothing was dark): repair copies 0
    assert first["copied"] == 0 and first["removed"] == 0
    # and only prefixes this shard replicates were even considered
    owned = {
        p for p in (f"d{i}" for i in range(8))
        if name in owners_of(federation, p)
    }
    assert first["prefixes"] == len(owned)
    assert federation.repair_shard(name) == first  # idempotent
