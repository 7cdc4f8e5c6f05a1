"""Federated Chirp: sharded namespace, routing, cross-shard rename, identity.

The acceptance bar (ROADMAP's federation item): every workload profile's
staging flow is byte-identical on one shard vs many — including under a
seeded fault plan — a cross-shard rename neither loses nor duplicates a
byte under drops and a mid-transfer shard restart, the same credential is
the same principal on every shard, and one trace follows a transfer
through both sides.
"""

import pytest

from repro.chirp import (
    CHIRP_PORT,
    ChirpClient,
    ChirpError,
    FED_XFER_SUFFIX,
    FederatedClient,
    GlobusAuthenticator,
    RetryPolicy,
    ServerAuth,
    advertise,
    deploy_federation,
    remove_server,
)
from repro.core import Acl, Rights
from repro.core.telemetry import instrument
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel.errno import Errno
from repro.kernel.fdtable import OpenFlags
from repro.kernel.timing import NS_PER_MS, NS_PER_S
from repro.net import Cluster, FaultPlan
from repro.workloads import AMANDA, BLAST, CMS, HF, IBIS, MAKE
from tests.chirp.conftest import (
    FAULT_RATE,
    FAULT_SEED,
    REPLICA_COUNT,
    SHARD_COUNT,
    requires_single_replica,
)
from tests.chirp.test_resilience import input_bytes, stage_and_run
from tests.helpers import WORLD, make_server

LAPTOP = "laptop.cs.nowhere.edu"
FRED_DN = "/O=UnivNowhere/CN=Fred"
FED = "pool"

#: How many shards "many" means: the CI federation job sets REPRO_SHARDS=8,
#: a plain run still exercises a real multi-shard map.
MANY = SHARD_COUNT if SHARD_COUNT > 1 else 4

RETRY = RetryPolicy(
    max_attempts=10,
    call_timeout_ns=5 * NS_PER_S,
    backoff_base_ns=5 * NS_PER_MS,
    seed=99,
)


def make_fed_world(n_shards, plan=None, replicas=REPLICA_COUNT, read_cache=WORLD.read_cache):
    """A federation of ``n_shards`` GSI-authenticated servers + a laptop."""
    cluster = Cluster()
    cluster.add_machine(LAPTOP)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, FRED_DN)

    acl = Acl()
    acl.set_entry("hostname:*.nowhere.edu", Rights.parse("rlx"))
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlav(rwlax)"))
    federation = deploy_federation(
        cluster,
        FED,
        n_shards,
        make_auth=lambda: ServerAuth(credential_store=trust),
        root_acl=acl,
        replicas=replicas,
        read_cache=read_cache,
    )

    def sim(proc, args):
        yield proc.compute(ms=1)
        fd = yield proc.sys.open("out.dat", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        addr = proc.alloc_bytes(b"results\n" * 64)
        yield proc.sys.write(fd, addr, 8 * 64)
        yield proc.sys.close(fd)
        return 0

    federation.register_program("sim", sim)
    if plan is not None:
        cluster.install_faults(plan)
    return cluster, federation, wallet


def connect_fred(cluster, federation, wallet, retry=None, telemetry=None):
    return FederatedClient.connect(
        cluster.network,
        LAPTOP,
        FED,
        federation.catalog_host,
        [GlobusAuthenticator(wallet)],
        retry=retry,
        telemetry=telemetry,
        replicas=federation.replicas,
    )


def cross_shard_pair(client, limit=64):
    """Two top-level directories that route to different shards."""
    base = client.shard_of("/d0")
    for i in range(1, limit):
        if client.shard_of(f"/d{i}") != base:
            return "/d0", f"/d{i}"
    pytest.fail("no cross-shard prefix pair found (degenerate ring?)")


# ---------------------------------------------------------------------- #
# the acceptance sweep: 1 shard vs many, byte-identical results
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "profile", [AMANDA, BLAST, CMS, HF, IBIS, MAKE], ids=lambda p: p.name
)
def test_every_workload_is_byte_identical_on_one_vs_many_shards(profile):
    def run_on(n_shards):
        plan = None
        if FAULT_RATE > 0:
            plan = FaultPlan.uniform(
                seed=FAULT_SEED, rate=FAULT_RATE, ports=(CHIRP_PORT,)
            )
        cluster, federation, wallet = make_fed_world(n_shards, plan)
        client = connect_fred(
            cluster, federation, wallet, retry=RETRY if FAULT_RATE > 0 else None
        )
        result = stage_and_run(client, profile)
        client.close()
        return result

    want = run_on(1)
    got = run_on(MANY)
    assert want["status"] == 0 and want["size"] == len(input_bytes(profile))
    assert got == want  # sharding must not be observable in results


def test_routing_spreads_prefixes_and_serves_from_owners():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    for i in range(16):
        client.mkdir(f"/d{i}")
        client.put(input_bytes(AMANDA)[:128], f"/d{i}/f")
    assert len(set(client.stats.routed)) > 1  # more than one shard did work
    served = federation.per_shard_op_counts()
    assert sum(1 for count in served.values() if count > 0) > 1
    # the union view: every top-level dir visible in one root listing
    assert client.readdir("/") == sorted(f"d{i}" for i in range(16))


# ---------------------------------------------------------------------- #
# cross-shard rename: the two-phase transfer
# ---------------------------------------------------------------------- #


def test_cross_shard_rename_moves_the_bytes_exactly_once():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    src_dir, dst_dir = cross_shard_pair(client)
    client.mkdir(src_dir)
    client.mkdir(dst_dir)
    payload = input_bytes(BLAST)
    client.put(payload, f"{src_dir}/blob")

    client.rename(f"{src_dir}/blob", f"{dst_dir}/blob")

    assert client.get(f"{dst_dir}/blob") == payload
    with pytest.raises(ChirpError) as excinfo:
        client.stat(f"{src_dir}/blob")
    assert excinfo.value.errno is Errno.ENOENT
    assert client.stats.transfers == 1
    assert client.stats.transfer_bytes == len(payload)
    # no staging residue on the destination shard (raw, unfiltered view)
    raw, _shard = client.client_for(dst_dir)
    assert not [n for n in raw.readdir(dst_dir) if n.endswith(FED_XFER_SUFFIX)]


def test_cross_shard_rename_preserves_the_execute_bit():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    src_dir, dst_dir = cross_shard_pair(client)
    client.mkdir(src_dir)
    client.mkdir(dst_dir)
    client.put(b"#!repro:sim\n", f"{src_dir}/sim.exe", mode=0o755)
    client.rename(f"{src_dir}/sim.exe", f"{dst_dir}/sim.exe")
    assert client.exec(f"{dst_dir}/sim.exe", cwd=dst_dir) == 0


def test_same_shard_rename_is_a_plain_rename():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    client.mkdir("/d0")
    client.put(b"x", "/d0/a")
    client.rename("/d0/a", "/d0/b")
    assert client.stats.transfers == 0  # no bytes crossed the wire twice
    assert client.get("/d0/b") == b"x"


def test_cross_shard_rename_survives_drops_and_a_mid_transfer_restart():
    """The satellite's bar: seeded drops plus a shard restart landing in
    the middle of the transfer; afterwards exactly one copy exists, the
    staging name is gone, and retries were answered from replay caches."""
    # shard count, replica count, and seed pinned together: the fault
    # schedule is a draw sequence, so the world must be identical per run
    plan = FaultPlan.uniform(
        seed=20260802, rate=0.10, restart_at_ops=(12,), ports=(CHIRP_PORT,)
    )
    cluster, federation, wallet = make_fed_world(4, plan, replicas=1)
    client = connect_fred(cluster, federation, wallet, retry=RETRY)
    src_dir, dst_dir = cross_shard_pair(client)
    client.mkdir(src_dir)
    client.mkdir(dst_dir)
    payload = input_bytes(CMS)
    client.put(payload, f"{src_dir}/blob")
    replays_before = sum(s.stats.replays for s in federation.servers())
    # the keyed commit's reply is lost after the destination applied it,
    # so its retry must be answered from the replay cache
    raw_dst, _shard = client.client_for(dst_dir)
    commit = raw_dst.rename

    def commit_with_lost_reply(old, new):
        plan.force("drop_after")
        return commit(old, new)

    raw_dst.rename = commit_with_lost_reply

    client.rename(f"{src_dir}/blob", f"{dst_dir}/blob")

    assert plan.stats.total() > 0, "the plan never actually fired"
    assert client.get(f"{dst_dir}/blob") == payload  # no loss
    with pytest.raises(ChirpError):  # no duplication: the source is gone
        client.stat(f"{src_dir}/blob")
    listing = raw_dst.readdir(dst_dir)
    assert listing.count("blob") == 1
    assert not [n for n in listing if n.endswith(FED_XFER_SUFFIX)]
    retries = sum(c.stats.retries for c in client._clients.values())
    replays = sum(s.stats.replays for s in federation.servers())
    assert retries > 0
    # at least one retried transfer step was answered from a replay cache
    assert replays - replays_before >= 1


# ---------------------------------------------------------------------- #
# identity: one principal everywhere, one policy surface
# ---------------------------------------------------------------------- #


def test_same_credential_is_the_same_principal_on_every_shard():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    principals = client.whoami_all()
    assert len(principals) == MANY
    assert set(principals.values()) == {"globus:/O=UnivNowhere/CN=Fred"}
    assert client.assert_identity_consistent() == "globus:/O=UnivNowhere/CN=Fred"


def test_acl_rendering_is_byte_identical_on_every_shard():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    views = client.getacl_all("/")
    assert len(set(views.values())) == 1
    # root ACL administration fans out, so policy cannot drift per shard
    client.setacl("/", "globus:/O=NotreDame/*", "rl")
    views = client.getacl_all("/")
    assert len(set(views.values())) == 1
    assert "globus:/O=NotreDame/*" in next(iter(views.values()))


# ---------------------------------------------------------------------- #
# the shard-map cache: versioned, invalidated by membership changes
# ---------------------------------------------------------------------- #


def test_refresh_is_a_cheap_no_op_while_membership_is_stable():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    before = client.shard_map
    federation.advertise_all()  # heartbeats are not membership changes
    assert client.refresh_map() is False
    assert client.shard_map is before
    assert client.stats.map_refreshes == 1
    assert client.stats.map_rebuilds == 0


def test_a_joining_shard_bumps_the_version_and_rebuilds_the_map():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    # a new shard joins through the ordinary advertise path
    trust = CredentialStore()
    machine = cluster.add_machine("late.pool")
    owner = machine.add_user("keeper9")
    newcomer = make_server(
        machine, owner, network=cluster.network,
        auth=ServerAuth(credential_store=trust),
    )
    newcomer.serve()
    advertise(
        cluster.network, "late.pool", newcomer, federation.catalog_host,
        federation=FED,
    )
    assert client.refresh_map() is True
    assert f"late.pool:{CHIRP_PORT}" in client.shard_map.names()
    assert len(client.shard_map.shards) == MANY + 1


def test_a_removed_shard_leaves_the_map_and_its_session_is_closed():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    src_dir, dst_dir = cross_shard_pair(client)
    client.mkdir(src_dir)  # open a session to the shard we will retire
    victim = client.shard_of(src_dir)
    assert victim in client._clients
    assert remove_server(
        cluster.network, LAPTOP, victim, federation.catalog_host
    )
    assert client.refresh_map() is True
    assert victim not in client.shard_map.names()
    assert victim not in client._clients  # departed session torn down


def test_an_expired_shard_is_evicted_not_ghosted_and_can_reregister():
    """The staleness satellite, end to end: a dead shard's record is
    *evicted* (version bump, map rebuild), and restarting it re-registers
    cleanly — exactly one record, no ghost."""
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    dead = sorted(federation.shards)[0]
    deployment = federation.shards[dead]
    cluster.crash_server(deployment.server.hostname, deployment.server.port)
    # everyone else heartbeats past the TTL; the dead shard stays silent
    cluster.clock.advance(federation.catalog.ttl_ns + 1)
    for name, live in federation.shards.items():
        if name != dead:
            advertise(
                cluster.network, live.server.hostname, live.server,
                federation.catalog_host, federation=FED, weight=live.weight,
            )
    assert client.refresh_map() is True
    assert dead not in client.shard_map.names()
    assert federation.catalog.evictions >= 1
    # the restart path: serve again, re-advertise, rejoin the map
    federation.restart_shard(dead)
    assert client.refresh_map() is True
    assert client.shard_map.names().count(dead) == 1  # back, and only once


# ---------------------------------------------------------------------- #
# telemetry: one trace across shards, per-shard op counts
# ---------------------------------------------------------------------- #


def test_one_trace_follows_a_cross_shard_rename_through_both_shards():
    cluster, federation, wallet = make_fed_world(MANY)
    laptop_tel = instrument(cluster.machine(LAPTOP))
    client = connect_fred(cluster, federation, wallet, telemetry=laptop_tel)
    src_dir, dst_dir = cross_shard_pair(client)
    client.mkdir(src_dir)
    client.mkdir(dst_dir)
    client.put(b"traced", f"{src_dir}/blob")
    client.rename(f"{src_dir}/blob", f"{dst_dir}/blob")

    fed_span = laptop_tel.spans_named("fed:rename")[-1]
    assert fed_span.attrs["from_shard"] != fed_span.attrs["to_shard"]
    for shard_name in (fed_span.attrs["from_shard"], fed_span.attrs["to_shard"]):
        shard_tel = federation.shards[shard_name].telemetry
        remote = shard_tel.spans_in_trace(fed_span.trace_id)
        assert remote, f"no server-side spans on {shard_name} in the trace"


@requires_single_replica
def test_per_shard_op_counters_account_for_routed_work():
    cluster, federation, wallet = make_fed_world(MANY)
    laptop_tel = instrument(cluster.machine(LAPTOP))
    client = connect_fred(cluster, federation, wallet, telemetry=laptop_tel)
    for i in range(8):
        client.mkdir(f"/d{i}")
    routed = client.per_shard_ops()
    assert sum(routed.values()) == 8
    counted = {
        dict(labels)["shard"]
        for (name, labels), _count in laptop_tel.counters.items()
        if name == "fed.ops"
    }
    assert counted == set(routed)


def test_per_shard_busy_time_is_spent_only_where_ops_were_served():
    cluster, federation, wallet = make_fed_world(MANY)
    client = connect_fred(cluster, federation, wallet)
    client.mkdir("/busy")
    client.put(b"x" * 100, "/busy/f")
    busy = federation.per_shard_busy_ns()
    served = federation.per_shard_op_counts()
    assert set(busy) == set(served) == set(federation.shards)
    assert all((busy[name] > 0) == (served[name] > 0) for name in busy)
    assert sum(busy.values()) > 0


#: (FederatedClient method, arguments) on the tree ``fed_outcomes`` builds;
#: each must answer what a plain ChirpClient answers on one server
FEDERATED_READS_AND_WRITES = [
    ("lstat", ("/dd/l",)),
    ("lstat", ("/dd/f",)),
    ("lstat", ("/dd/missing",)),
    ("access", ("/dd/f",)),
    ("access", ("/dd/f", "w")),
    ("access", ("/dd/missing",)),
    ("readlink", ("/dd/l",)),
    ("readlink", ("/dd/f",)),
    ("symlink", ("f", "/dd/rel")),  # beside the link, on the link's shard
    ("readlink", ("/dd/rel",)),
    ("get", ("/dd/rel",)),
    ("getacl", ("/dd",)),
    ("getacl", ("/dd/missing",)),
    ("aclcheck", ("/dd", "w")),
    ("aclcheck", ("/dd", "v")),
    ("link", ("/dd/f", "/dd/hard")),
    ("link", ("/dd/f", "/dd/hard")),  # exists
    ("lstat", ("/dd/hard",)),
    ("truncate", ("/dd/f", 2)),
    ("get", ("/dd/hard",)),  # one inode: the link sees the truncation
    ("truncate", ("/dd/missing", 0)),
    ("rmdir", ("/dd/sub",)),
    ("rmdir", ("/dd/sub",)),
    ("rmdir", ("/dd",)),  # not empty
    ("readdir", ("/dd",)),
]


def fed_outcomes(client):
    """Build the tree, then each call's result, or its errno."""
    client.mkdir("/dd")
    client.mkdir("/dd/sub")
    client.put(b"hello", "/dd/f")
    client.symlink("/dd/f", "/dd/l")
    out = []
    for name, args in FEDERATED_READS_AND_WRITES:
        try:
            result = getattr(client, name)(*args)
        except ChirpError as exc:
            out.append(exc.errno)
            continue
        if hasattr(result, "is_symlink"):
            # mtimes follow each world's clock; the rest must agree
            result = (result.size, result.is_dir, result.is_symlink, result.nlink)
        out.append(result)
    return out


def test_federated_client_ops_match_a_plain_chirp_client():
    cluster, federation, wallet = make_fed_world(MANY)
    federated = connect_fred(cluster, federation, wallet)
    one_cluster, one, one_wallet = make_fed_world(1, replicas=1)
    plain, _shard = connect_fred(one_cluster, one, one_wallet).client_for("/")
    assert type(plain) is ChirpClient
    got = fed_outcomes(federated)
    want = fed_outcomes(plain)
    assert got == want
    assert Errno.ENOENT in want and Errno.EEXIST in want and Errno.ENOTEMPTY in want
