"""Consistent global identity across multiple sites — the paper's title.

Two Chirp servers run by different, unprivileged operators on different
machines.  Fred is `globus:/O=UnivNowhere/CN=Fred` at *both*, with no local
account at either: ACLs he writes on site A name exactly the identity that
authenticates at site B, and a boxed job can read input from one server and
write output to the other through the /chirp namespace.
"""

import pytest

from repro.chirp import (
    ChirpClient,
    ChirpDriver,
    GlobusAuthenticator,
    ServerAuth,
)
from repro.core import Acl, IdentityBox, Rights
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel import OpenFlags
from repro.net import Cluster
from tests.helpers import make_server

SITE_A = "storage.nowhere.edu"
SITE_B = "compute.nd.edu"
LAPTOP = "laptop.nowhere.edu"
FRED_DN = "/O=UnivNowhere/CN=Fred"
FRED = f"globus:{FRED_DN}"


@pytest.fixture
def world():
    cluster = Cluster()
    for host in (SITE_A, SITE_B, LAPTOP):
        cluster.add_machine(host)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, FRED_DN)

    servers = {}
    for host, operator in ((SITE_A, "keeper_a"), (SITE_B, "keeper_b")):
        machine = cluster.machine(host)
        owner = machine.add_user(operator)
        server = make_server(
            machine,
            owner,
            network=cluster.network,
            auth=ServerAuth(credential_store=trust),
        )
        acl = Acl()
        acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
        server.set_root_acl(acl)
        server.serve()
        servers[host] = server
    return cluster, servers, wallet


def _client(cluster, wallet, host):
    client = ChirpClient.connect(cluster.network, LAPTOP, host)
    client.authenticate([GlobusAuthenticator(wallet)])
    return client


def test_same_principal_at_both_sites(world):
    cluster, servers, wallet = world
    a = _client(cluster, wallet, SITE_A)
    b = _client(cluster, wallet, SITE_B)
    assert a.whoami() == b.whoami() == FRED


def test_acl_written_at_one_site_names_identity_used_at_other(world):
    cluster, servers, wallet = world
    a = _client(cluster, wallet, SITE_A)
    a.mkdir("/data")
    # the ACL at site A literally contains the same string site B verifies
    assert FRED in a.getacl("/data")
    b = _client(cluster, wallet, SITE_B)
    b.mkdir("/results")
    assert a.getacl("/data").strip() == b.getacl("/results").strip()


def test_no_local_accounts_created_anywhere(world):
    cluster, servers, wallet = world
    a = _client(cluster, wallet, SITE_A)
    a.mkdir("/data")
    a.put(b"input", "/data/in.dat")
    for host, server in servers.items():
        names = {acct.name for acct in server.machine.users.accounts()}
        assert names == {"root", "nobody", server.owner_cred.username}


def test_boxed_job_spans_both_sites(world):
    """A boxed process on the laptop pipes data from site A to site B."""
    cluster, servers, wallet = world
    a = _client(cluster, wallet, SITE_A)
    a.mkdir("/data")
    payload = b"dataset-" + b"x" * 20_000
    a.put(payload, "/data/in.dat")
    b = _client(cluster, wallet, SITE_B)
    b.mkdir("/results")

    laptop = cluster.machine(LAPTOP)
    fred_local = laptop.add_user("fred")
    box = IdentityBox(laptop, fred_local, FRED)
    box.supervisor.mount(
        "/chirp", ChirpDriver(cluster.network, LAPTOP, [GlobusAuthenticator(wallet)])
    )

    def pipeline(proc, args):
        src = yield proc.sys.open(f"/chirp/{SITE_A}/data/in.dat", OpenFlags.O_RDONLY)
        dst = yield proc.sys.open(
            f"/chirp/{SITE_B}/results/out.dat",
            OpenFlags.O_WRONLY | OpenFlags.O_CREAT,
        )
        buf = proc.alloc(8192)
        while True:
            n = yield proc.sys.read(src, buf, 8192)
            if n <= 0:
                break
            yield proc.sys.write(dst, buf, n)
        yield proc.sys.close(src)
        yield proc.sys.close(dst)
        return 0

    proc = box.spawn(pipeline)
    laptop.run_to_completion()
    assert proc.exit_status == 0
    assert b.get("/results/out.dat") == payload


def test_revocation_at_one_site_is_local(world):
    cluster, servers, wallet = world
    a = _client(cluster, wallet, SITE_A)
    b = _client(cluster, wallet, SITE_B)
    a.mkdir("/data")
    b.mkdir("/results")
    # site A's operator locks Fred out of the root (owner-level edit)
    servers[SITE_A].set_root_acl(Acl())  # empty ACL: deny everyone
    from repro.chirp import ChirpError

    with pytest.raises(ChirpError):
        a.readdir("/")
    # site B is unaffected: authorization is per-site, identity is global
    assert b.readdir("/") == ["results"]
