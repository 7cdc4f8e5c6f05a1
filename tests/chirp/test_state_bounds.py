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

Out of scope here: the federation's missed-write log (ROADMAP item 2,
never shrunk by a replica that stays away), which a single server does
not exercise.
"""

from repro.chirp import ChirpError, GlobusAuthenticator
from repro.chirp.server import IDEM_CACHE_LIMIT
from repro.core.acl import RIGHTS_MEMO_ENTRIES, Acl
from repro.core.pipeline import READ_CACHE_ENTRIES
from repro.gsi import provision_user
from repro.kernel.errno import Errno
from repro.kernel.vfs import MEMO_ENTRIES
from tests.chirp.conftest import connect
from tests.helpers import state_census

#: Stores with a fixed cap: reaching it is bounded by construction.  The
#: read cache (armed when the suite runs with ``REPRO_CACHE=1``) keys its
#: entries by identity, so new principals fill it up to its capacity,
#: one path index entry per cached key.
CAPS = {
    "ChirpServer._idem_cache": IDEM_CACHE_LIMIT,
    "VFS._memo": MEMO_ENTRIES,
    "ReadCache._entries": READ_CACHE_ENTRIES,
    "ReadCache._by_path": READ_CACHE_ENTRIES,
}


def test_churn_leaves_every_store_bounded(cluster, server, fred_wallet):
    fred = connect(cluster)
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


def test_exec_churn_leaves_no_process_behind(cluster, server, fred_wallet):
    """Every ``exec`` runs a job that exits with a zombie child.  The
    process table holds only live processes and zombies, so between execs
    it is empty, however many have run."""
    machine = server.machine
    machine.register_program("job", job)
    machine.register_program("leaf", leaf)
    fred = connect(cluster)
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
    cluster, server, ca, trust, fred_wallet
):
    """Each session is a new principal that is checked against two ACLs
    (the export root's and ``/shared``'s).  After 200 and after 2,000 of
    them, no rights memo holds more than its cap, though each ACL was
    asked about every principal: a full memo starts over."""
    fred = connect(cluster)
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
            client = connect(cluster)
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
