"""Shared Chirp test scaffolding: a cluster with one server and full auth.

A nonzero ``WORLD.fault_rate`` (``REPRO_FAULT_RATE``, e.g. ``0.1``)
subjects every test that uses these fixtures to a seeded uniform fault
plan on the Chirp port, and arms the shared clients with a retry policy:
the whole Chirp suite then doubles as a resilience suite.  The seed is
fixed, so a faulted run is just as deterministic as a clean one.
"""

import pytest

from repro.chirp import (
    CHIRP_PORT,
    ChirpClient,
    GlobusAuthenticator,
    RetryPolicy,
    ServerAuth,
)
from repro.config import DEFAULT_FAULT_SEED
from repro.core import Acl, Rights
from repro.gsi import (
    CertificateAuthority,
    CredentialStore,
    KeyDistributionCenter,
    provision_user,
)
from repro.net import Cluster, FaultPlan
from tests.helpers import WORLD, make_server

#: Per-kind fault probability injected under every chirp test (CI's
#: faulted leg); fixtures and skip markers read the same ``WORLD``.
FAULT_RATE = WORLD.fault_rate
FAULT_SEED = DEFAULT_FAULT_SEED
#: Shard count for federation-aware tests (CI's federation job sets 8);
#: single-server tests ignore it, the federation suite sweeps 1 vs this.
SHARD_COUNT = WORLD.shards
#: Replicas per directory prefix (CI's test-replicated chaos job sets 3);
#: 1 is the old single-owner federation and the default everywhere.
REPLICA_COUNT = WORLD.replicas
#: Generous attempt budget: at rate r each call fails with ~1-(1-r)^4.
FAULT_RETRY = RetryPolicy(max_attempts=10, seed=FAULT_SEED)
#: What shared fixtures hand their clients/drivers/sessions.
DEFAULT_RETRY = FAULT_RETRY if FAULT_RATE > 0 else None

#: For tests whose assertions are about exact transport behavior or
#: precise operation counts — both meaningless once faults are injected.
requires_perfect_network = pytest.mark.skipif(
    FAULT_RATE > 0,
    reason="asserts exact transport-level behavior; skipped under fault plan",
)

#: For tests whose assertions count exactly one routed op per logical op
#: — quorum writes at REPRO_REPLICAS>1 legitimately route k of them.
requires_single_replica = pytest.mark.skipif(
    REPLICA_COUNT > 1,
    reason="asserts single-owner routing counts; skipped at REPRO_REPLICAS>1",
)

FRED_DN = "/O=UnivNowhere/CN=Fred"
HEIDI_DN = "/O=NotreDame/CN=Heidi"
SERVER_HOST = "server1.nowhere.edu"
CLIENT_HOST = "laptop.cs.nowhere.edu"
OUTSIDE_HOST = "mallory.evil.example"
SERVICE_PRINCIPAL = "chirp/server1.nowhere.edu"


@pytest.fixture
def cluster():
    c = Cluster()
    c.add_machine(SERVER_HOST)
    c.add_machine(CLIENT_HOST)
    c.add_machine(OUTSIDE_HOST)
    if FAULT_RATE > 0:
        c.install_faults(
            FaultPlan.uniform(seed=FAULT_SEED, rate=FAULT_RATE, ports=(CHIRP_PORT,))
        )
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
def server(cluster, trust, kdc):
    machine = cluster.machine(SERVER_HOST)
    owner = machine.add_user("dthain")
    srv = make_server(
        machine,
        owner,
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


def connect(cluster, host=CLIENT_HOST):
    return ChirpClient.connect(cluster.network, host, SERVER_HOST, retry=DEFAULT_RETRY)


@pytest.fixture
def fred(cluster, server, fred_wallet):
    client = connect(cluster)
    client.authenticate([GlobusAuthenticator(fred_wallet)])
    return client


@pytest.fixture
def heidi(cluster, server, heidi_wallet):
    client = connect(cluster)
    client.authenticate([GlobusAuthenticator(heidi_wallet)])
    return client

