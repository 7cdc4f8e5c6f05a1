"""Shared Chirp test scaffolding: a cluster with one server and full auth.

Every test that uses these fixtures runs in each world
(``tests/conftest.py``), except that one marked
``requires_perfect_network`` skips the faulted one.  The ``faulted``
world subjects the cluster to a seeded uniform fault plan on the Chirp
port and arms the shared clients with a retry policy, so the Chirp
suite doubles as a resilience suite; the seed is fixed, so a faulted
run is just as deterministic as a clean one.  The ``cached`` world gives
the server a read cache.  Federation shapes are not worlds:
``test_federation.py`` names the (shards, replicas) shapes it checks,
and runs all of them in every world.
"""

import pytest

from repro.chirp import (
    ChirpClient,
    GlobusAuthenticator,
    ServerAuth,
)
from repro.core import Acl, Rights
from repro.gsi import (
    CertificateAuthority,
    CredentialStore,
    KeyDistributionCenter,
    provision_user,
)
from repro.net import Cluster
from tests.helpers import make_server

#: For tests whose assertions are about exact transport behavior or
#: precise operation counts, both meaningless once faults are injected:
#: such a test never runs in the faulted world.
requires_perfect_network = pytest.mark.requires_perfect_network

FRED_DN = "/O=UnivNowhere/CN=Fred"
HEIDI_DN = "/O=NotreDame/CN=Heidi"
SERVER_HOST = "server1.nowhere.edu"
CLIENT_HOST = "laptop.cs.nowhere.edu"
OUTSIDE_HOST = "mallory.evil.example"
SERVICE_PRINCIPAL = "chirp/server1.nowhere.edu"


@pytest.fixture
def cluster(make_fault_plan):
    c = Cluster()
    c.add_machine(SERVER_HOST)
    c.add_machine(CLIENT_HOST)
    c.add_machine(OUTSIDE_HOST)
    c.install_faults(make_fault_plan())
    return c


@pytest.fixture
def ca():
    return CertificateAuthority("UnivNowhere CA")


@pytest.fixture
def trust(ca):
    store = CredentialStore()
    store.trust(ca)
    return store


@pytest.fixture
def fred_wallet(ca, trust):
    return provision_user(ca, trust, FRED_DN)


@pytest.fixture
def heidi_wallet(ca, trust):
    return provision_user(ca, trust, HEIDI_DN)


@pytest.fixture
def kdc():
    center = KeyDistributionCenter("NOWHERE.EDU")
    center.add_principal("fred@nowhere.edu")
    return center


@pytest.fixture
def server(cluster, trust, kdc, world):
    machine = cluster.machine(SERVER_HOST)
    owner = machine.add_user("dthain")
    srv = make_server(
        machine,
        owner,
        read_cache=world.read_cache,
        network=cluster.network,
        auth=ServerAuth(
            credential_store=trust,
            kdcs={"NOWHERE.EDU": kdc},
            service_principal=SERVICE_PRINCIPAL,
        ),
    )
    acl = Acl()
    acl.set_entry("hostname:*.nowhere.edu", Rights.parse("rlx"))
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("v(rwlax)"))
    acl.set_entry("globus:/O=NotreDame/*", Rights.parse("rl"))
    srv.set_root_acl(acl)
    srv.serve()
    return srv


def connect(cluster, world, host=CLIENT_HOST):
    return ChirpClient.connect(cluster.network, host, SERVER_HOST, retry=world.retry)


@pytest.fixture
def fred(cluster, server, fred_wallet, world):
    client = connect(cluster, world)
    client.authenticate([GlobusAuthenticator(fred_wallet)])
    return client


@pytest.fixture
def heidi(cluster, server, heidi_wallet, world):
    client = connect(cluster, world)
    client.authenticate([GlobusAuthenticator(heidi_wallet)])
    return client

