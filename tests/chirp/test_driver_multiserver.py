"""The /chirp driver with several servers behind one mount."""

import pytest

from repro.chirp import (
    ChirpDriver,
    GlobusAuthenticator,
    ServerAuth,
)
from repro.core import Acl, IdentityBox, Rights
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel import Errno
from repro.net import Cluster
from tests.helpers import boxed_read_file, boxed_write_file, make_server, run_calls

HOST_A = "a.example.edu"
HOST_B = "b.example.edu"
LAPTOP = "laptop.example.edu"
FRED_DN = "/O=Example/CN=Fred"


@pytest.fixture
def grid(world):
    cluster = Cluster()
    for host in (HOST_A, HOST_B, LAPTOP):
        cluster.add_machine(host)
    ca = CertificateAuthority("Example CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, FRED_DN)
    for host in (HOST_A, HOST_B):
        machine = cluster.machine(host)
        owner = machine.add_user("op")
        server = make_server(
            machine, owner, read_cache=world.read_cache, network=cluster.network,
            auth=ServerAuth(credential_store=trust),
        )
        acl = Acl()
        acl.set_entry("globus:/O=Example/*", Rights.parse("rwlxa"))
        server.set_root_acl(acl)
        server.serve()
    laptop = cluster.machine(LAPTOP)
    user = laptop.add_user("fred")
    box = IdentityBox(laptop, user, f"globus:{FRED_DN}")
    box.supervisor.mount(
        "/chirp", ChirpDriver(cluster.network, LAPTOP, [GlobusAuthenticator(wallet)])
    )
    return cluster, box


def test_one_mount_reaches_both_servers(grid):
    _cluster, box = grid
    assert boxed_write_file(box, f"/chirp/{HOST_A}/fa", b"on A") == 4
    assert boxed_write_file(box, f"/chirp/{HOST_B}/fb", b"on B") == 4
    assert boxed_read_file(box, f"/chirp/{HOST_A}/fa") == b"on A"
    assert boxed_read_file(box, f"/chirp/{HOST_B}/fb") == b"on B"


def test_rename_across_servers_is_exdev(grid):
    _cluster, box = grid
    boxed_write_file(box, f"/chirp/{HOST_A}/f", b"x")
    results = run_calls(
        [("rename", f"/chirp/{HOST_A}/f", f"/chirp/{HOST_B}/f")],
        machine=box.machine,
        box=box,
    )
    assert results == [-Errno.EXDEV]


def test_link_across_servers_is_exdev(grid):
    _cluster, box = grid
    boxed_write_file(box, f"/chirp/{HOST_A}/f", b"x")
    results = run_calls(
        [("link", f"/chirp/{HOST_A}/f", f"/chirp/{HOST_B}/f2")],
        machine=box.machine,
        box=box,
    )
    assert results == [-Errno.EXDEV]


def test_rename_within_one_server_works(grid):
    _cluster, box = grid
    boxed_write_file(box, f"/chirp/{HOST_A}/old", b"x")
    results = run_calls(
        [("rename", f"/chirp/{HOST_A}/old", f"/chirp/{HOST_A}/new")],
        machine=box.machine,
        box=box,
    )
    assert results == [0]
    assert boxed_read_file(box, f"/chirp/{HOST_A}/new") == b"x"


def test_local_paths_untouched_by_chirp_mount(grid):
    _cluster, box = grid
    assert boxed_write_file(box, "local.txt", b"home sweet home") == 15
    assert boxed_read_file(box, "local.txt") == b"home sweet home"


def test_unknown_server_refuses_connection(grid):
    _cluster, box = grid
    results = run_calls(
        [("stat", "/chirp/no-such-host.example/f")], machine=box.machine, box=box
    )
    assert results == [-Errno.ECONNREFUSED]
