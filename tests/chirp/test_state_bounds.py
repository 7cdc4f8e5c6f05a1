"""Bounded state: a server's stores stop growing while its work goes on.

ROADMAP item 5's census.  A client drives one ``ChirpServer`` through a
churn cycle (putfile, rename over an existing name, putfile + unlink,
mkdir + rmdir) with one descriptor held open across part of the run,
and :func:`tests.helpers.state_census` sizes every store reachable from
the server and the client.  Ten times the work may fill a store to its
cap, or leave it within 10% of its size after the first 200 cycles;
anything else grows with the work done, which is a leak however slowly
it grows.

A second census churns principals instead of files: every session is a
never-seen identity, and each directory's compiled ACL remembers the
rights of at most ``RIGHTS_MEMO_ENTRIES`` of them.

A third census covers a replicated federation with one replica dark:
its client, the deployment and the catalog hold the same state after a
blackout ten times as long, because a replica that misses a write costs
one catalog mark, not a log of the writes.
"""

import gc
import tracemalloc
from collections import deque

from repro.chirp import ChirpError, GlobusAuthenticator
from repro.chirp.server import IDEM_CACHE_LIMIT
from repro.core.acl import RIGHTS_MEMO_ENTRIES, Acl
from repro.core.pipeline import READ_CACHE_ENTRIES
from repro.gsi import provision_user
from repro.kernel.errno import Errno
from repro.kernel.vfs import MEMO_ENTRIES
from tests.chirp.conftest import connect
from tests.chirp.test_federation import RETRY, connect_fred, make_fed_world
from tests.helpers import state_census

#: Stores with a fixed cap: reaching it is bounded by construction.  The
#: read cache (armed in the cached world) keys its entries by identity,
#: so new principals fill it up to its capacity, one path index entry
#: per cached key.
CAPS = {
    "ChirpServer._idem_cache": IDEM_CACHE_LIMIT,
    "VFS._memo": MEMO_ENTRIES,
    "ReadCache._entries": READ_CACHE_ENTRIES,
    "ReadCache._by_path": READ_CACHE_ENTRIES,
}


def test_churn_leaves_every_store_bounded(cluster, server, fred_wallet, world):
    fred = connect(cluster, world)
    fred.authenticate([GlobusAuthenticator(fred_wallet)])
    fred.mkdir("/w")  # the root grants Fred only the reserve right
    fred.put(b"held open", "/w/b")
    held = fred.open("/w/b")

    def cycle() -> None:
        fred.put(b"x" * 100, "/w/a")
        fred.rename("/w/a", "/w/b")  # the old /w/b loses its last name
        fred.put(b"y" * 10, "/w/c")
        fred.unlink("/w/c")
        fred.mkdir("/w/d")
        fred.rmdir("/w/d")

    for i in range(200):
        if i == 100:
            try:
                fred.close_fd(held)
            except ChirpError as exc:
                # a fault plan may have dropped the connection, and the
                # server closed the descriptor with it
                assert exc.errno is Errno.EBADF
        cycle()
    early = state_census(server, fred)
    for _ in range(1800):
        cycle()
    late = state_census(server, fred)

    grown = {
        key: (early.get(key, 0), size)
        for key, size in late.items()
        if size > max(early.get(key, 0) * 1.1, CAPS.get(key, 0))
    }
    assert grown == {}, f"stores that grow with the work done: {grown}"
    # the file the held descriptor kept alive died at its close
    assert early["LocalFS._orphans"] == late["LocalFS._orphans"] == 0


def leaf(proc, args):
    return 0
    yield  # a program body is a generator


def job(proc, args):
    yield proc.sys.spawn("leaf.exe", ())
    yield proc.compute(us=10)  # the leaf exits first: a zombie until we go
    return 0


def test_exec_churn_leaves_no_process_behind(cluster, server, fred_wallet, world):
    """Every ``exec`` runs a job that exits with a zombie child.  The
    process table holds only live processes and zombies, so between execs
    it is empty, however many have run."""
    machine = server.machine
    machine.register_program("job", job)
    machine.register_program("leaf", leaf)
    fred = connect(cluster, world)
    fred.authenticate([GlobusAuthenticator(fred_wallet)])
    fred.mkdir("/w")
    fred.put(b"#!repro:job\n", "/w/job.exe", mode=0o755)
    fred.put(b"#!repro:leaf\n", "/w/leaf.exe", mode=0o755)

    def execs(count: int) -> None:
        for _ in range(count):
            assert fred.exec("/w/job.exe", cwd="/w") == 0

    execs(300)
    early = state_census(server, fred)
    execs(2700)
    late = state_census(server, fred)

    grown = {
        key: (early.get(key, 0), size)
        for key, size in late.items()
        if size > max(early.get(key, 0) * 1.1, CAPS.get(key, 0))
    }
    assert grown == {}, f"stores that grow with the work done: {grown}"
    assert machine.live_processes() == []
    assert early["Machine._procs"] == late["Machine._procs"] == 0


def rights_memos(server) -> dict[int, int]:
    """Size of the rights memo of every compiled ACL the policy holds,
    by directory inode."""
    return {
        ino: len(acl._compiled.memo)
        for ino, acl in server.policy._cache.items()
        if isinstance(acl, Acl) and acl._compiled is not None
    }


def test_principal_churn_leaves_every_rights_memo_within_its_cap(
    cluster, server, ca, trust, fred_wallet, world
):
    """Each session is a new principal that is checked against two ACLs
    (the export root's and ``/shared``'s).  After 200 and after 2,000 of
    them, no rights memo holds more than its cap, though each ACL was
    asked about every principal: a full memo starts over."""
    fred = connect(cluster, world)
    fred.authenticate([GlobusAuthenticator(fred_wallet)])
    fred.mkdir("/shared")  # through the reserve right: fred alone holds it
    fred.setacl("/shared", "globus:/O=UnivNowhere/*", "rl")
    fred.put(b"hot", "/shared/f")
    minted = 0

    def sessions(count: int) -> None:
        nonlocal minted
        for _ in range(count):
            minted += 1
            wallet = provision_user(ca, trust, f"/O=UnivNowhere/CN=p{minted:05d}")
            client = connect(cluster, world)
            client.authenticate([GlobusAuthenticator(wallet)])
            assert not client.access("/", "l")  # the root grants only v(...)
            assert client.access("/shared", "l")
            assert client.get("/shared/f") == b"hot"
            client.close()

    sessions(200)
    early, early_census = rights_memos(server), state_census(server, fred)
    sessions(1800)
    late, late_census = rights_memos(server), state_census(server, fred)
    assert len(early) == len(late) == 2  # the root's ACL and /shared's
    for memos in (early, late):
        assert all(1 <= size <= RIGHTS_MEMO_ENTRIES for size in memos.values()), memos
    grown = {
        key: (early_census.get(key, 0), size)
        for key, size in late_census.items()
        if size > max(early_census.get(key, 0) * 1.1, CAPS.get(key, 0))
    }
    # the offline certificate ceremony registers each new user there
    assert grown.pop("CredentialStore._known_users") == (201, 2001)
    assert grown == {}, f"stores that grow with the principals: {grown}"


def dark_replica_run(missed: int) -> tuple[dict[str, int], int]:
    """A 3-replica federation whose primary for ``/d0`` is dark while
    ``missed`` distinct 64 KiB puts land on its peers: the census of the
    client, the deployment and the catalog, and the bytes the run left
    allocated, counted from before the world was built."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster, federation, wallet = make_fed_world(4, replicas=3, read_cache=False)
        for shard in federation.shards.values():
            # a ring the warm-up fills, as it fills its 20,000-span default
            # only after ~10,000 puts: either way its cap bounds it
            shard.telemetry.spans = deque(maxlen=256)
        client = connect_fred(cluster, federation, wallet, retry=RETRY)
        client.mkdir("/d0")
        for i in range(IDEM_CACHE_LIMIT):  # fill every replay cache first
            client.put(b"warm", f"/d0/f{i % 4}")
        federation.blackout_shard(client.shard_of("/d0"), 0, 10**9)
        for i in range(missed):
            client.put(bytes([i % 251]) * 65536, f"/d0/f{i % 4}")
        assert client.stats.marks == 1
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return state_census(client, federation, federation.catalog), retained


def test_a_dark_replica_costs_the_same_state_at_ten_times_the_blackout():
    short, short_bytes = dark_replica_run(80)
    long, long_bytes = dark_replica_run(800)
    assert long == short
    assert abs(long_bytes - short_bytes) <= 0.1 * short_bytes, (short_bytes, long_bytes)
