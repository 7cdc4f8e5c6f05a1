"""Ablation D: authentication-method cost at connection setup (§4).

Chirp negotiates among globus (GSI proxy verification), kerberos (ticket
exchange), hostname (reverse lookup), and unix (same-host names).  This
bench measures the simulated cost of connect + authenticate + one whoami
per method, plus the fallback path where a failing offer precedes the
accepted one.

Expected shape: all methods are dominated by network round trips (three
frames), so they land within a small factor of each other; each extra
failing offer adds roughly one round trip.

Run:  pytest benchmarks/bench_auth_methods.py --benchmark-only -s
"""

import pytest

from repro.bench import Table, banner, save_and_print
from repro.chirp import (
    ChirpClient,
    ChirpServer,
    GlobusAuthenticator,
    HostnameAuthenticator,
    KerberosAuthenticator,
    ServerAuth,
)
from repro.gsi import (
    CertificateAuthority,
    CredentialStore,
    KeyDistributionCenter,
    UserCredentials,
    provision_user,
)
from repro.net import Cluster

SERVER = "server1.nowhere.edu"
CLIENT = "laptop.cs.nowhere.edu"
SERVICE = "chirp/server1.nowhere.edu"


def build_world():
    cluster = Cluster()
    cluster.add_machine(SERVER)
    cluster.add_machine(CLIENT)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, "/O=UnivNowhere/CN=Fred")
    kdc = KeyDistributionCenter("NOWHERE.EDU")
    kdc.add_principal("fred@nowhere.edu")
    machine = cluster.machine(SERVER)
    owner = machine.add_user("dthain")
    server = ChirpServer(
        machine,
        owner,
        network=cluster.network,
        auth=ServerAuth(
            credential_store=trust,
            kdcs={"NOWHERE.EDU": kdc},
            service_principal=SERVICE,
        ),
    )
    server.serve()
    return cluster, wallet, kdc


def offers_for(name: str, wallet, kdc):
    bogus_ca = CertificateAuthority("Bogus CA")
    bogus = UserCredentials(certificate=bogus_ca.issue("/O=Bogus/CN=X"))
    table = {
        "globus": [GlobusAuthenticator(wallet)],
        "kerberos": [KerberosAuthenticator(kdc, "fred@nowhere.edu", SERVICE)],
        "hostname": [HostnameAuthenticator()],
        "fallback(globus->hostname)": [
            GlobusAuthenticator(bogus),
            HostnameAuthenticator(),
        ],
    }
    return table[name]


METHODS = ("globus", "kerberos", "hostname", "fallback(globus->hostname)")


def auth_cost_us(name: str) -> float:
    cluster, wallet, kdc = build_world()
    start = cluster.clock.now_ns
    client = ChirpClient.connect(cluster.network, CLIENT, SERVER)
    client.authenticate(offers_for(name, wallet, kdc))
    client.whoami()
    return (cluster.clock.now_ns - start) / 1_000


@pytest.fixture(scope="module")
def auth_results():
    return {name: auth_cost_us(name) for name in METHODS}


@pytest.mark.parametrize("name", METHODS, ids=METHODS)
def test_auth_method_cost(benchmark, auth_results, name):
    benchmark.extra_info["simulated_us"] = round(auth_results[name], 1)
    benchmark.pedantic(auth_cost_us, args=(name,), rounds=2, iterations=1)
    assert auth_results[name] > 0


def test_auth_methods_report(benchmark, auth_results):
    def build() -> str:
        table = Table(headers=("method", "connect+auth+whoami us"))
        for name in METHODS:
            table.add(name, auth_results[name])
        text = (
            banner("Ablation D: authentication method cost (simulated)")
            + "\n"
            + table.render()
        )
        save_and_print("ablation_auth_methods", text)
        return text

    benchmark.pedantic(build, rounds=1, iterations=1)
    # shape: round-trip bound — no method is wildly more expensive...
    costs = [auth_results[m] for m in METHODS[:3]]
    assert max(costs) < 2 * min(costs)
    # ...and a failed offer costs roughly one extra exchange
    assert auth_results["fallback(globus->hostname)"] > auth_results["hostname"]
