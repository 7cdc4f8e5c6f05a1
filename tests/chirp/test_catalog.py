"""The catalog server: advertise, list, staleness."""

import pytest

from repro.chirp import (
    CatalogRecord,
    CatalogServer,
    ChirpError,
    advertise,
    list_servers,
    mark_shards,
)
from repro.kernel.errno import Errno
from tests.chirp.conftest import CLIENT_HOST, SERVER_HOST

CATALOG_HOST = "catalog.nowhere.edu"


@pytest.fixture
def catalog(cluster):
    cluster.add_machine(CATALOG_HOST)
    server = CatalogServer(cluster.network, CATALOG_HOST, ttl_s=60)
    server.serve()
    return server


def test_advertise_and_list(cluster, server, catalog):
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    records = list_servers(cluster.network, CLIENT_HOST, CATALOG_HOST)
    assert len(records) == 1
    assert records[0].hostname == SERVER_HOST
    assert records[0].owner == "dthain"


def test_empty_catalog(cluster, catalog):
    assert list_servers(cluster.network, CLIENT_HOST, CATALOG_HOST) == []


def test_reupdate_replaces_record(cluster, server, catalog):
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    assert len(list_servers(cluster.network, CLIENT_HOST, CATALOG_HOST)) == 1


def test_stale_records_expire(cluster, server, catalog):
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    cluster.clock.advance(61 * 1_000_000_000)  # a minute passes, no heartbeat
    assert list_servers(cluster.network, CLIENT_HOST, CATALOG_HOST) == []


def test_heartbeat_keeps_record_fresh(cluster, server, catalog):
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    cluster.clock.advance(50 * 1_000_000_000)
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    cluster.clock.advance(50 * 1_000_000_000)
    assert len(list_servers(cluster.network, CLIENT_HOST, CATALOG_HOST)) == 1


def test_records_sorted_by_name(cluster, catalog):
    for name in ("srv-b", "srv-a"):
        catalog.update(
            CatalogRecord(name=name, hostname=name, port=9094, owner="x")
        )
    names = [r.name for r in catalog.fresh_records()]
    assert names == ["srv-a", "srv-b"]


def test_record_wire_roundtrip():
    record = CatalogRecord(
        name="n", hostname="h", port=9094, owner="o", updated_ns=123
    )
    assert CatalogRecord.from_fields(record.to_fields()) == record


def test_bad_catalog_op_rejected(cluster, catalog):
    from repro.net.rpc import decode_message, encode_message

    conn = cluster.network.connect(CLIENT_HOST, CATALOG_HOST, catalog.port)
    reply = decode_message(conn.call(encode_message({"op": "explode"})))
    assert reply["ok"] is False


def test_a_refused_catalog_op_raises_the_catalogs_errno(cluster, catalog):
    with pytest.raises(ChirpError) as info:
        mark_shards(cluster.network, CLIENT_HOST, "fed", [("a",)], CATALOG_HOST)
    assert info.value.errno is Errno.EINVAL
    assert catalog.marked == {}


# ---------------------------------------------------------------------- #
# eviction and deregistration: staleness means *gone*, not filtered
# ---------------------------------------------------------------------- #


def test_expired_records_are_evicted_not_just_filtered(cluster, server, catalog):
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    cluster.clock.advance(61 * 1_000_000_000)
    evicted = catalog.sweep()
    assert evicted == [f"{SERVER_HOST}:{server.port}"]
    assert catalog.evictions == 1
    assert catalog._records == {}  # truly gone, no ghost entry


def test_a_restarted_server_reregisters_with_no_ghost(cluster, server, catalog):
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    cluster.clock.advance(61 * 1_000_000_000)
    catalog.sweep()
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    names = [r.name for r in list_servers(cluster.network, CLIENT_HOST, CATALOG_HOST)]
    assert names == [f"{SERVER_HOST}:{server.port}"]  # exactly one record


def test_remove_deregisters_over_the_wire(cluster, server, catalog):
    from repro.chirp import remove_server

    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    name = f"{SERVER_HOST}:{server.port}"
    assert remove_server(cluster.network, CLIENT_HOST, name, CATALOG_HOST) is True
    assert list_servers(cluster.network, CLIENT_HOST, CATALOG_HOST) == []
    # removing what is not there reports so instead of erroring
    assert remove_server(cluster.network, CLIENT_HOST, name, CATALOG_HOST) is False


# ---------------------------------------------------------------------- #
# federation membership versions: the shard-map cache token
# ---------------------------------------------------------------------- #


def _member(name, weight=1, federation="pool"):
    return CatalogRecord(
        name=name, hostname=name, port=9094, owner="k",
        federation=federation, weight=weight,
    )


def test_membership_version_bumps_on_join_change_remove_and_evict(cluster, catalog):
    assert catalog.federation_version("pool") == 0
    catalog.update(_member("s1"))
    assert catalog.federation_version("pool") == 1  # join
    catalog.update(_member("s1"))
    assert catalog.federation_version("pool") == 1  # heartbeat: no bump
    catalog.update(_member("s1", weight=3))
    assert catalog.federation_version("pool") == 2  # ring weight changed
    catalog.update(_member("s2"))
    assert catalog.federation_version("pool") == 3
    catalog.remove("s2")
    assert catalog.federation_version("pool") == 4  # explicit retirement
    cluster.clock.advance(61 * 1_000_000_000)
    assert catalog.federation_version("pool") == 5  # s1 evicted by the sweep
    assert catalog.federation_view("pool") == (5, [])


def test_federation_view_is_scoped_and_versioned(cluster, server, catalog):
    from repro.chirp import federation_members

    catalog.update(_member("s1"))
    catalog.update(_member("s2", weight=2))
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)  # standalone
    version, members = federation_members(
        cluster.network, CLIENT_HOST, "pool", CATALOG_HOST
    )
    assert version == 2
    assert [m.name for m in members] == ["s1", "s2"]
    assert [m.weight for m in members] == [1, 2]
    # a standalone server's heartbeats never touch federation versions
    advertise(cluster.network, SERVER_HOST, server, CATALOG_HOST)
    assert catalog.federation_version("pool") == 2


# ---------------------------------------------------------------------- #
# failure detection: suspects sit between heartbeat and eviction
# ---------------------------------------------------------------------- #

NS = 1_000_000_000


@pytest.fixture
def watchful(cluster):
    """A catalog whose failure detector fires well before eviction."""
    cluster.add_machine("watchful.nowhere.edu")
    server = CatalogServer(
        cluster.network, "watchful.nowhere.edu", ttl_s=60, suspect_after_s=20
    )
    server.serve()
    return server


def test_missed_heartbeats_mark_a_shard_suspect_with_one_bump(cluster, watchful):
    watchful.update(_member("s1"))
    watchful.update(_member("s2"))
    assert watchful.federation_version("pool") == 2
    cluster.clock.advance(10 * NS)
    watchful.update(_member("s2"))  # s2 keeps heartbeating, s1 goes silent
    cluster.clock.advance(11 * NS)  # s1 is now 21s silent, s2 only 11s
    assert watchful.federation_version("pool") == 3  # the sweep's verdict
    flags = {r.name: r.suspect for r in watchful.fresh_records()}
    assert flags == {"s1": True, "s2": False}
    assert watchful.suspicions == 1
    # the verdict is bumped once, not once per sweep
    assert watchful.federation_version("pool") == 3
    # suspects are demoted, not evicted: still a member, still on the ring
    assert [r.name for r in watchful.federation_view("pool")[1]] == ["s1", "s2"]


def test_a_suspect_heartbeat_revives_with_exactly_one_bump(cluster, watchful):
    watchful.update(_member("s1"))
    cluster.clock.advance(21 * NS)
    assert watchful.federation_version("pool") == 2  # join + suspicion
    watchful.update(_member("s1"))  # the shard comes back
    assert watchful.federation_version("pool") == 3  # revival: one bump
    assert not any(r.suspect for r in watchful.fresh_records())
    watchful.update(_member("s1"))  # an ordinary heartbeat again
    assert watchful.federation_version("pool") == 3


def test_reregistration_after_silence_bumps_once_even_without_a_sweep(
    cluster, watchful
):
    """The eviction/re-registration coupling: a shard that re-registers
    during its own eviction window gets exactly one version bump whether
    or not the sweep noticed the silence first."""
    # (a) the sweep never ran: silence is detected at re-registration
    watchful.update(_member("s1"))
    assert watchful._fed_versions["pool"] == 1
    cluster.clock.advance(25 * NS)  # past suspect horizon, below the TTL
    watchful.update(_member("s1"))  # no sweep happened in between
    assert watchful._fed_versions["pool"] == 2  # went-silent: one bump
    # (b) the sweep ran first: suspicion then revival, one bump each
    cluster.clock.advance(25 * NS)
    watchful.sweep()
    assert watchful._fed_versions["pool"] == 3
    watchful.update(_member("s1"))
    assert watchful._fed_versions["pool"] == 4


def test_eviction_still_wins_past_the_ttl_and_clears_suspicion(cluster, watchful):
    watchful.update(_member("s1"))
    cluster.clock.advance(61 * NS)  # silent past the eviction TTL
    # eviction preempts suspicion: the record is gone, one bump, and the
    # expired shard never lingers in the suspect set
    assert watchful.federation_view("pool") == (2, [])
    assert watchful.evictions == 1 and watchful.suspicions == 0
    assert watchful._suspects == set()
    watchful.update(_member("s1"))  # re-registration is a plain join
    assert watchful.federation_version("pool") == 3


# ---------------------------------------------------------------------- #
# marks: a shard that missed a write stays marked until a rejoin clears it
# ---------------------------------------------------------------------- #


def test_a_mark_bumps_once_and_survives_heartbeats_revival_and_eviction(
    cluster, server, watchful
):
    advertise(cluster.network, SERVER_HOST, server, watchful.hostname, federation="pool")
    name = f"{SERVER_HOST}:{server.port}"
    marks = [(name, "d0"), (name, "")]
    assert mark_shards(cluster.network, CLIENT_HOST, "pool", marks, watchful.hostname) == (2, 2)
    assert watchful.federation_version("pool") == 2  # join + one bump per report
    # already marked: no change, no bump
    assert mark_shards(cluster.network, CLIENT_HOST, "pool", marks, watchful.hostname) == (2, 0)
    assert [r.marked for r in watchful.federation_view("pool")[1]] == [("", "d0")]
    # a heartbeat, over the wire or straight into the catalog, keeps it
    advertise(cluster.network, SERVER_HOST, server, watchful.hostname, federation="pool")
    watchful.update(watchful.fresh_records()[0])
    assert watchful.federation_version("pool") == 2
    # so do suspicion, revival and eviction followed by re-registration
    cluster.clock.advance(21 * NS)
    advertise(cluster.network, SERVER_HOST, server, watchful.hostname, federation="pool")
    cluster.clock.advance(61 * NS)
    assert watchful.federation_view("pool")[1] == []
    advertise(cluster.network, SERVER_HOST, server, watchful.hostname, federation="pool")
    assert watchful.marked[name] == ("", "d0")
    listed = list_servers(cluster.network, CLIENT_HOST, watchful.hostname)
    assert [r.marked for r in listed] == [("", "d0")]
    # clearing is the same op, one prefix at a time: one more bump each,
    # and the record is plain once none is left
    version = watchful.federation_version("pool")
    clear = [(name, "d0")]
    assert mark_shards(
        cluster.network, CLIENT_HOST, "pool", clear, watchful.hostname, marked=False
    ) == (version + 1, 1)
    assert watchful.marked[name] == ("",)
    watchful.mark("pool", [(name, "")], marked=False)
    assert watchful.federation_version("pool") == version + 2
    assert name not in watchful.marked
    assert not any(r.marked for r in watchful.fresh_records())
