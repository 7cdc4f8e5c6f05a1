"""Replicated federation: quorum writes, shard failover, anti-entropy repair.

The acceptance bar: every workload profile is byte-identical at three
replicas vs one — *including* a run where one replica is blacked out
mid-flight and rejoins (repaired) before the end, under a seeded 10%
fault plan, at 4 and at 8 shards.  Around that sweep: placement
unit-tests, failover reads, quorum arithmetic, tolerant teardown,
suspect demotion, and the one repair mechanism: a replica that misses a
write is marked in the catalog for the write's prefix, routed around for
it by every client that refreshed its map, and repaired only by a rejoin
that copies each prefix from a peer not marked for it.
"""

import pytest

from repro.chirp import (
    CATALOG_PORT,
    CHIRP_PORT,
    CatalogRecord,
    ChirpError,
    FederatedClient,
    GlobusAuthenticator,
    ShardInfo,
    ShardMap,
    advertise,
    quorum,
    route_order,
)
from repro.chirp.server import read_file, write_file
from repro.config import DEFAULT_FAULT_SEED
from repro.core.acl import ACL_FILE_NAME
from repro.kernel.errno import Errno
from repro.net import FaultPlan
from repro.workloads import AMANDA, BLAST, CMS, HF, IBIS, MAKE
from tests.chirp.test_federation import (
    FED,
    LAPTOP,
    RETRY,
    connect_fred,
    make_fed_world,
)
from tests.chirp.test_resilience import input_bytes, stage_and_run

#: Replicated worlds need room for k=3 plus at least one non-owner.
SHARDS = 4
#: The fault rate the chaos sweep runs under, in every world.
CHAOS_RATE = 0.10
#: Where the mid-run outage sits on the fault plan's op counter: every
#: workload is drilled early (keeping its bare test id) and late, each
#: drill at every shard count in its third field.
DEFAULT_WINDOW = (20, 90)
LATE_WINDOW = (40, 120)
ALL = (AMANDA, BLAST, CMS, HF, IBIS, MAKE)
DRILLS = [pytest.param(p, DEFAULT_WINDOW, (4, 8), id=p.name) for p in ALL] + [
    # AMANDA's drill ends near op 43 at 4 shards, before a late outage
    pytest.param(p, LATE_WINDOW, (8,) if p is AMANDA else (4, 8), id=f"{p.name}-40:120")
    for p in ALL
]


def replicated_world(world, replicas=3):
    return make_fed_world(SHARDS, replicas=replicas, read_cache=world.read_cache)


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


def test_route_order_drops_marked_replicas_and_an_all_marked_route_is_eagain():
    a, b, c = (
        ShardInfo(name="a", hostname="a", marked=frozenset({"d0"})),
        ShardInfo(name="b", hostname="b", suspect=True, marked=frozenset({""})),
        ShardInfo(name="c", hostname="c", suspect=True),
    )
    # a mark holds for its prefix; one on the root ACL holds for every prefix
    assert route_order((a, b, c), "d0") == (c,)
    assert route_order((a, b, c), "d1") == (a, c)
    records = [CatalogRecord(name="a", hostname="a", port=CHIRP_PORT, owner="k", marked=("d0",))]
    shard_map = ShardMap.from_records("pool", 1, records)
    assert shard_map.route_for_prefix("d1") == (shard_map.shards, ())
    with pytest.raises(ChirpError) as info:
        shard_map.route_for_prefix("d0")
    assert info.value.errno is Errno.EAGAIN


# ---------------------------------------------------------------------- #
# the acceptance sweep: k=3 vs k=1, with a replica dying mid-run
# ---------------------------------------------------------------------- #


def drill(profile, window, shards, want, world):
    """Three replicas, a seeded fault plan, and the workload prefix's
    *primary* blacked out for a mid-run op window."""
    plan = FaultPlan.uniform(seed=DEFAULT_FAULT_SEED, rate=CHAOS_RATE, ports=(CHIRP_PORT,))
    cluster, federation, wallet = make_fed_world(
        shards, plan, replicas=3, read_cache=world.read_cache
    )
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


@pytest.mark.parametrize("profile, window, shard_counts", DRILLS)
def test_every_workload_is_byte_identical_with_a_replica_dying_mid_run(
    profile, window, shard_counts, subtests, world
):
    # the reference: one replica per prefix, perfect wires
    cluster, federation, wallet = replicated_world(world, replicas=1)
    client = connect_fred(cluster, federation, wallet)
    want = stage_and_run(client, profile)
    client.close()
    assert want["status"] == 0 and want["size"] == len(input_bytes(profile))
    for shards in shard_counts:
        with subtests.test(shards=shards):
            drill(profile, window, shards, want, world)


# ---------------------------------------------------------------------- #
# failover reads, and marks on the replicas that miss a write
# ---------------------------------------------------------------------- #


def test_failover_read_serves_from_a_replica_while_the_primary_is_dark(world):
    cluster, federation, wallet = replicated_world(world)
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


def test_a_replica_that_misses_a_write_is_marked_and_serves_again_after_its_rejoin(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    client.mkdir("/d0")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    payload = b"written while one replica was dark"
    client.put(payload, "/d0/f")  # quorum 2/3: succeeds, the victim is marked
    assert client.stats.quorum_writes >= 1
    assert client.stats.marks == 1
    assert victim in federation.catalog.marked
    # the writer refreshed its map: the mark is in it
    assert [s.name for s in client.shard_map.shards if s.marked] == [victim]

    lift_blackouts(cluster)
    served = client.stats.routed[victim]
    assert client.get("/d0/f") == payload
    assert client.put(b"after", "/d0/g") == 5
    assert client.stats.routed[victim] == served  # routed around, not replayed onto
    raw, shard = client.client_for("/d0")
    assert shard == victim
    with pytest.raises(ChirpError) as info:
        raw.stat("/d0/f")  # the victim still lacks the write
    assert info.value.errno is Errno.ENOENT

    federation.rejoin_shard(victim)
    assert victim not in federation.catalog.marked
    assert client.refresh_map() is True  # clearing the mark bumped the version
    assert raw.get("/d0/f") == payload and raw.get("/d0/g") == b"after"
    assert client.get("/d0/f") == payload
    assert client.stats.routed[victim] == served + 1  # the primary serves again


def test_a_rejoin_applies_a_missed_mkdir_before_the_put_inside_it(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    client.mkdir("/d0")  # both missed: the put depends on the mkdir
    client.put(b"x", "/d0/f")
    lift_blackouts(cluster)

    client.put(b"y", "/d0/g")  # the marked victim is skipped, not caught up
    raw, _shard = client.client_for("/d0")
    with pytest.raises(ChirpError):
        raw.readdir("/d0")
    federation.rejoin_shard(victim)  # the repair creates /d0 before its files
    assert sorted(raw.readdir("/d0")) == ["f", "g"]


def test_quorum_write_fails_with_eagain_when_a_majority_is_dark(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet)
    owners = client.replica_names("/q")
    assert len(owners) == 3
    for name in owners[1:]:
        federation.blackout_shard(name, 0, 10**9)
    with pytest.raises(ChirpError) as info:
        client.mkdir("/q")
    assert info.value.errno is Errno.EAGAIN
    assert client.stats.quorum_failures == 1
    # the primary applied the mkdir, so both dark peers are marked
    assert client.stats.marks == 2
    assert [name in federation.catalog.marked for name in owners] == [False, True, True]


def test_a_definite_error_outvotes_nothing_reads_stay_exact(world):
    # replicas are deterministic, so a definite error (ENOENT) from the
    # first live replica IS the answer — failover is only for silence
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet)
    with pytest.raises(ChirpError) as info:
        client.stat("/nowhere/nothing")
    assert info.value.errno is Errno.ENOENT
    assert client.stats.failover_reads == 0


def test_root_readdir_and_setacl_tolerate_one_dark_shard(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet)
    for i in range(8):
        client.mkdir(f"/d{i}")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    # the union listing still covers every prefix: replica peers list
    # everything the dark shard owns
    assert client.readdir("/") == sorted(f"d{i}" for i in range(8))
    # root policy administration marks the dark shard instead of failing
    client.setacl("/", "globus:/O=NotreDame/*", "rl")
    assert victim in federation.catalog.marked
    assert client.stats.marks == 1


def test_a_root_setacl_with_every_shard_marked_for_the_root_acl_is_eagain(world):
    cluster, federation, wallet = replicated_world(world)
    federation.catalog.mark(FED, [(name, "") for name in federation.shards])
    client = connect_fred(cluster, federation, wallet)
    with pytest.raises(ChirpError) as info:
        client.setacl("/", "globus:/O=NotreDame/*", "rl")
    assert info.value.errno is Errno.EAGAIN
    assert not any("NotreDame" in acl for acl in client.getacl_all("/").values())


def test_close_with_dead_sessions_closes_the_rest_and_never_raises(world):
    cluster, federation, wallet = replicated_world(world)
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
    assert client._clients == {}


def test_stale_read_after_a_quorum_write():
    # explicit world: no fault plan, no cache
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

    assert connect_fred(cluster, federation, wallet).get("/d0/f") == b"from-b"
    a.stat("/d0")
    assert connect_fred(cluster, federation, wallet).get("/d0/f") == b"from-b"
    federation.rejoin_shard(primary)
    owners = [federation.shards[name].server for name in owners_of(federation, "d0")]
    assert {read_file(s.fs, s.real_path("/d0/f")) for s in owners} == {b"from-b"}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a client whose shard map was cached before a mark still reads the "
    "marked replica once its outage lifts, until it refreshes; closing that "
    "window needs a server-side fence",
)
def test_a_map_cached_before_the_mark_still_reads_the_unrepaired_replica():
    cluster, federation, wallet = make_fed_world(4, replicas=3, read_cache=False)
    a = connect_fred(cluster, federation, wallet, retry=RETRY)
    a.mkdir("/d0")
    a.put(b"v0", "/d0/f")
    reader = connect_fred(cluster, federation, wallet)  # its map predates the mark
    federation.blackout_shard(a.shard_of("/d0"), 0, 10**9)
    a.put(b"v1", "/d0/f")  # marks the primary
    lift_blackouts(cluster)
    assert reader.get("/d0/f") == b"v1"


def test_a_write_whose_mark_cannot_be_reported_answers_eagain(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    client.mkdir("/d0")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    # no catalog to report to
    blind = FederatedClient(
        cluster.network, LAPTOP, client.shard_map, [GlobusAuthenticator(wallet)]
    )
    with pytest.raises(ChirpError) as info:
        blind.put(b"x", "/d0/f")
    assert info.value.errno is Errno.EAGAIN
    # a catalog that cannot be reached
    cluster.crash_server(federation.catalog_host, federation.catalog.port)
    with pytest.raises(ChirpError) as info:
        client.put(b"x", "/d0/f")
    assert info.value.errno is Errno.EAGAIN
    assert victim not in federation.catalog.marked
    assert client.stats.marks == blind.stats.marks == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a replicated write whose mark report cannot be delivered answers "
    "EAGAIN after the replicas that answered applied it, and the dark replica "
    "stays unmarked (CHANGES.md FOUND line), so a fresh client reads the old "
    "bytes from it",
)
def test_an_undelivered_mark_report_leaves_the_dark_replica_serving_the_old_bytes():
    cluster, federation, wallet = make_fed_world(4, replicas=3, read_cache=False)
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    client.mkdir("/d0")
    client.put(b"v0", "/d0/f")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    cluster.network.unlisten(federation.catalog_host, CATALOG_PORT)
    with pytest.raises(ChirpError) as info:
        client.put(b"v1", "/d0/f")
    assert info.value.errno is Errno.EAGAIN
    federation.catalog.serve()
    lift_blackouts(cluster)

    assert federation.catalog.marked == {}
    held = [shard_file(federation, name, "/d0/f") for name in owners_of(federation, "d0")]
    assert held == [b"v0", b"v1", b"v1"]  # the primary missed the applied write
    assert connect_fred(cluster, federation, wallet).get("/d0/f") == b"v1"


def plant_stale(federation, names, acl_bytes):
    """Give each named shard an old root ACL and, where it holds /d0, an
    old /d0/f, straight through its file system."""
    for name in names:
        server = federation.shards[name].server
        write_file(server.fs, server.real_path("/" + ACL_FILE_NAME), acl_bytes, 0o644)
        if name in owners_of(federation, "d0"):
            write_file(server.fs, server.real_path("/d0/f"), b"stale", 0o644)


def shard_file(federation, name, path):
    server = federation.shards[name].server
    return read_file(server.fs, server.real_path(path))


def test_repair_copies_neither_a_prefix_nor_the_root_acl_from_a_marked_peer(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet)
    client.mkdir("/d0")
    victim, _stale, donor = owners_of(federation, "d0")
    old_acl = shard_file(federation, victim, "/" + ACL_FILE_NAME)
    client.put(b"current", "/d0/f")
    client.setacl("/", "globus:/O=NotreDame/*", "rl")
    current_acl = shard_file(federation, donor, "/" + ACL_FILE_NAME)
    # every shard but the donor holds old bytes, and all but it are marked
    marked = [name for name in federation.shards if name != donor]
    plant_stale(federation, marked, old_acl)
    federation.catalog.mark(FED, [(n, p) for n in marked for p in ("", "d0")])

    federation.rejoin_shard(victim)
    assert shard_file(federation, victim, "/d0/f") == b"current"
    assert shard_file(federation, victim, "/" + ACL_FILE_NAME) == current_acl
    assert [n for n in marked if n in federation.catalog.marked] == [
        n for n in marked if n != victim
    ]


def test_a_rejoin_without_an_unmarked_donor_is_eagain_and_keeps_the_mark(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet)
    client.mkdir("/d0")
    client.put(b"current", "/d0/f")
    current_acl = shard_file(federation, client.shard_of("/d0"), "/" + ACL_FILE_NAME)
    victim, *peers = owners_of(federation, "d0")
    plant_stale(federation, [victim], b"stale acl\n")
    federation.catalog.mark(FED, [(n, "d0") for n in (victim, *peers)] + [(victim, "")])
    with pytest.raises(ChirpError) as info:
        federation.rejoin_shard(victim)
    assert info.value.errno is Errno.EAGAIN
    assert federation.catalog.marked[victim] == ("d0",)  # the root ACL's mark cleared
    assert shard_file(federation, victim, "/" + ACL_FILE_NAME) == current_acl
    assert shard_file(federation, victim, "/d0/f") == b"stale"  # no donor: left as is
    fresh = connect_fred(cluster, federation, wallet)
    for unroutable in (lambda: fresh.get("/d0/f"), lambda: fresh.readdir("/")):
        with pytest.raises(ChirpError) as info:
            unroutable()  # no replica of /d0 is routable, so no listing omits it
        assert info.value.errno is Errno.EAGAIN


def test_a_writer_whose_map_still_shows_a_cleared_mark_reports_the_replica_again():
    cluster, federation, wallet = make_fed_world(4, replicas=3, read_cache=False)
    writer = connect_fred(cluster, federation, wallet, retry=RETRY)
    writer.mkdir("/d0")
    victim = writer.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    writer.put(b"v1", "/d0/f")  # marks the victim
    lift_blackouts(cluster)
    federation.rejoin_shard(victim)  # repaired; the writer's map still shows the mark
    assert victim not in federation.catalog.marked
    writer.put(b"v2", "/d0/f")  # skips the victim, so it reports it
    assert federation.catalog.marked[victim] == ("d0",)
    assert writer.stats.marks == 2
    assert connect_fred(cluster, federation, wallet).get("/d0/f") == b"v2"
    federation.rejoin_shard(victim)
    assert shard_file(federation, victim, "/d0/f") == b"v2"


def test_an_outage_on_every_owner_of_a_prefix_leaves_it_routable_and_each_rejoin_whole():
    # each owner of /d0 misses a write under a different prefix it owns:
    # a mark covers the prefix it was missed under, so /d0 keeps two
    # routable owners and every rejoin has a donor
    cluster, federation, wallet = make_fed_world(8, replicas=3, read_cache=False)
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    owners = owners_of(federation, "d0")
    missed = {owners[0]: "d0"}
    for owner in owners[1:]:
        missed[owner] = next(
            p for p in (f"d{i}" for i in range(1, 200))
            if owner in owners_of(federation, p) and p not in missed.values()
        )
    for prefix in missed.values():
        client.mkdir(f"/{prefix}")
    for owner, prefix in missed.items():
        federation.blackout_shard(owner, 0, 10**9)
        client.put(f"missed by {owner}".encode(), f"/{prefix}/f")
        lift_blackouts(cluster)
    assert federation.catalog.marked == {o: (p,) for o, p in missed.items()}
    fresh = connect_fred(cluster, federation, wallet)
    assert fresh.get("/d0/f") == f"missed by {owners[0]}".encode()
    assert set(missed.values()) <= set(fresh.readdir("/"))
    for owner, prefix in missed.items():
        federation.rejoin_shard(owner)
        assert shard_file(federation, owner, f"/{prefix}/f") == f"missed by {owner}".encode()
    assert federation.catalog.marked == {}


# ---------------------------------------------------------------------- #
# suspect demotion: routing around a likely-dead shard for free
# ---------------------------------------------------------------------- #


def test_a_suspect_shard_is_demoted_so_reads_never_pay_a_failover(world):
    cluster, federation, wallet = replicated_world(world)
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


def test_rejoin_repairs_a_dark_shard_from_its_replica_peers(world):
    cluster, federation, wallet = replicated_world(world)
    client = connect_fred(cluster, federation, wallet)
    client.mkdir("/d0")
    client.put(b"old bytes", "/d0/keep")
    client.put(b"doomed", "/d0/tmp")
    victim = client.shard_of("/d0")
    federation.blackout_shard(victim, 0, 10**9)
    # mutations the victim sleeps through (the first marks it); the
    # client then goes away, and only server-side anti-entropy converges
    # the victim
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


def test_repair_is_idempotent_and_scoped_to_owned_prefixes(world):
    cluster, federation, wallet = replicated_world(world)
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
