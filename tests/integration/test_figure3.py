"""Figure 3 end to end: discover, authenticate, reserve, stage, exec, fetch."""

import pytest

from repro.chirp import (
    CatalogServer,
    ChirpClient,
    ChirpError,
    GlobusAuthenticator,
    HostnameAuthenticator,
    ServerAuth,
    advertise,
    list_servers,
)
from repro.core import Acl, Rights
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel import OpenFlags
from repro.net import Cluster
from tests.helpers import make_server

SERVER = "server1.nowhere.edu"
LAPTOP = "laptop.cs.nowhere.edu"
CATALOG = "catalog.nowhere.edu"
FRED_DN = "/O=UnivNowhere/CN=Fred"


@pytest.fixture
def world():
    cluster = Cluster()
    for host in (SERVER, LAPTOP, CATALOG):
        cluster.add_machine(host)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    fred_wallet = provision_user(ca, trust, FRED_DN)

    server_machine = cluster.machine(SERVER)
    dthain = server_machine.add_user("dthain")
    server = make_server(
        server_machine,
        dthain,
        network=cluster.network,
        auth=ServerAuth(credential_store=trust),
    )
    acl = Acl()
    acl.set_entry("hostname:*.nowhere.edu", Rights.parse("rlx"))
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    server.set_root_acl(acl)
    server.serve()

    catalog = CatalogServer(cluster.network, CATALOG)
    catalog.serve()
    advertise(cluster.network, SERVER, server, CATALOG)

    def sim(proc, args):
        yield proc.compute(ms=100)
        fd = yield proc.sys.open("out.dat", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        addr = proc.alloc_bytes(b"results\n" * 512)
        yield proc.sys.write(fd, addr, 8 * 512)
        yield proc.sys.close(fd)
        return 0

    server_machine.register_program("sim", sim)
    return cluster, server, fred_wallet


def test_full_workflow(world):
    cluster, server, fred_wallet = world

    # 0. discovery
    records = list_servers(cluster.network, LAPTOP, CATALOG)
    assert [r.hostname for r in records] == [SERVER]

    # connect & authenticate with GSI
    client = ChirpClient.connect(cluster.network, LAPTOP, SERVER)
    principal = client.authenticate([GlobusAuthenticator(fred_wallet)])
    assert principal == f"globus:{FRED_DN}"

    # 1-2. mkdir /work via the reserve right; ACL is fresh and Fred-only
    client.mkdir("/work")
    assert client.getacl("/work").strip() == f"globus:{FRED_DN} rwlxa"

    # 3. stage in the executable
    client.put(b"#!repro:sim\n", "/work/sim.exe", mode=0o755)

    # 4. exec in an identity box named by the principal
    t_before = cluster.clock.now_ns
    assert client.exec("/work/sim.exe", cwd="/work") == 0
    assert cluster.clock.now_ns - t_before >= 100_000_000  # the compute ran

    # 5. retrieve the output
    assert client.get("/work/out.dat") == b"results\n" * 512

    # cleanup, as the figure shows
    client.unlink("/work/out.dat")
    client.unlink("/work/sim.exe")
    client.rmdir("/work")
    assert client.readdir("/") == []


def test_no_account_exists_for_fred_anywhere(world):
    cluster, server, fred_wallet = world
    client = ChirpClient.connect(cluster.network, LAPTOP, SERVER)
    client.authenticate([GlobusAuthenticator(fred_wallet)])
    client.mkdir("/work")
    client.put(b"data", "/work/d")
    # the server machine's account database never heard of Fred
    names = [a.name for a in server.machine.users.accounts()]
    assert names == ["root", "dthain", "nobody"]
    # and the files are physically owned by the unprivileged operator
    st = server.machine.kcall_x(
        server.owner_task, "stat", server.export_root + "/work/d"
    )
    assert st.st_uid == server.owner_cred.uid


def test_hostname_visitors_limited_to_rlx(world):
    cluster, server, fred_wallet = world
    visitor = ChirpClient.connect(cluster.network, LAPTOP, SERVER)
    visitor.authenticate([HostnameAuthenticator()])
    # can list the root...
    visitor.readdir("/")
    # ...but cannot reserve or write
    with pytest.raises(ChirpError):
        visitor.mkdir("/intruder")
    with pytest.raises(ChirpError):
        visitor.put(b"x", "/dropped")


def test_two_grid_users_share_via_acls(world):
    cluster, server, fred_wallet = world
    ca2 = CertificateAuthority("UnivNowhere CA")  # same CA by determinism
    trust2 = server.auth.credential_store
    george_wallet = provision_user(ca2, trust2, "/O=UnivNowhere/CN=George")

    fred = ChirpClient.connect(cluster.network, LAPTOP, SERVER)
    fred.authenticate([GlobusAuthenticator(fred_wallet)])
    george = ChirpClient.connect(cluster.network, LAPTOP, SERVER)
    george.authenticate([GlobusAuthenticator(george_wallet)])

    fred.mkdir("/work")
    fred.put(b"fred's results", "/work/results")
    with pytest.raises(ChirpError):
        george.get("/work/results")
    fred.setacl("/work", "globus:/O=UnivNowhere/CN=George", "rl")
    assert george.get("/work/results") == b"fred's results"
