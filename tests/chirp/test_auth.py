"""Authentication negotiation: all four methods, fallbacks, admission."""

import pytest

from repro.chirp import ChirpError
from repro.chirp.auth import (
    GlobusAuthenticator,
    HostnameAuthenticator,
    KerberosAuthenticator,
    UnixAuthenticator,
)
from repro.gsi import CertificateAuthority, UserCredentials
from tests.chirp.conftest import (
    CLIENT_HOST,
    FRED_DN,
    OUTSIDE_HOST,
    SERVER_HOST,
    SERVICE_PRINCIPAL,
    connect,
)
from tests.helpers import make_server


def test_globus_auth_builds_principal(cluster, server, fred_wallet):
    client = connect(cluster)
    principal = client.authenticate([GlobusAuthenticator(fred_wallet)])
    assert principal == f"globus:{FRED_DN}"
    assert client.whoami() == principal


def test_kerberos_auth(cluster, server, kdc):
    client = connect(cluster)
    principal = client.authenticate(
        [KerberosAuthenticator(kdc, "fred@nowhere.edu", SERVICE_PRINCIPAL)]
    )
    assert principal == "kerberos:fred@nowhere.edu"


def test_hostname_auth_uses_reverse_lookup(cluster, server):
    client = connect(cluster)
    principal = client.authenticate([HostnameAuthenticator()])
    assert principal == f"hostname:{CLIENT_HOST}"


def test_unix_auth_same_host_only(cluster, server):
    # from the server machine itself
    local = connect(cluster, host=SERVER_HOST)
    assert local.authenticate([UnixAuthenticator("dthain")]) == "unix:dthain"
    # from a remote machine: refused
    remote = connect(cluster)
    with pytest.raises(ChirpError):
        remote.authenticate([UnixAuthenticator("dthain")])


def test_negotiation_falls_back_in_client_order(cluster, server):
    # an invalid globus offer followed by hostname: hostname wins
    bogus_ca = CertificateAuthority("Bogus CA")
    bogus = UserCredentials(certificate=bogus_ca.issue("/O=Bogus/CN=Nobody"))
    client = connect(cluster)
    principal = client.authenticate(
        [GlobusAuthenticator(bogus), HostnameAuthenticator()]
    )
    assert principal.startswith("hostname:")


def test_all_offers_failing_raises_last_error(cluster, server):
    bogus_ca = CertificateAuthority("Bogus CA")
    bogus = UserCredentials(certificate=bogus_ca.issue("/O=Bogus/CN=Nobody"))
    client = connect(cluster)
    with pytest.raises(ChirpError):
        client.authenticate([GlobusAuthenticator(bogus)])


def test_no_authenticators_raises(cluster, server):
    client = connect(cluster)
    with pytest.raises(ChirpError):
        client.authenticate([])


def test_operations_require_authentication(cluster, server):
    client = connect(cluster)
    with pytest.raises(ChirpError) as info:
        client.stat("/")
    assert "authenticate" in str(info.value)


def test_forged_proxy_rejected(cluster, server, fred_wallet):

    client = connect(cluster)
    auth = GlobusAuthenticator(fred_wallet)
    payload = auth.payload()
    payload["subject"] = "/O=UnivNowhere/CN=Mallory"  # tamper

    class Tampered(GlobusAuthenticator):
        def payload(self):
            return payload

    with pytest.raises(ChirpError):
        client.authenticate([Tampered(fred_wallet)])


def test_admission_policy_blocks_principals(cluster, trust, fred_wallet):
    from repro.chirp import ServerAuth
    from repro.gsi import WildcardPolicy

    machine = cluster.machine(SERVER_HOST)
    owner = machine.add_user("op")
    server = make_server(
        machine,
        owner,
        network=cluster.network,
        port=9200,
        auth=ServerAuth(credential_store=trust),
        admission=WildcardPolicy(patterns=["globus:/O=NotreDame/*"]),
    )
    server.serve()
    from repro.chirp import ChirpClient

    client = ChirpClient.connect(cluster.network, CLIENT_HOST, SERVER_HOST, 9200)
    with pytest.raises(ChirpError) as info:
        client.authenticate([GlobusAuthenticator(fred_wallet)])
    assert "not admitted" in str(info.value)
    assert server.stats.auth_failures == 1


def test_method_not_offered_by_server(cluster, trust):
    from repro.chirp import ChirpClient, ServerAuth

    machine = cluster.machine(SERVER_HOST)
    owner = machine.add_user("op2")
    server = make_server(
        machine,
        owner,
        network=cluster.network,
        port=9201,
        auth=ServerAuth(methods=["globus"], credential_store=trust),
    )
    server.serve()
    client = ChirpClient.connect(cluster.network, CLIENT_HOST, SERVER_HOST, 9201)
    with pytest.raises(ChirpError):
        client.authenticate([HostnameAuthenticator()])


def test_hostname_identity_differs_per_host(cluster, server):
    inside = connect(cluster)
    outside = connect(cluster, host=OUTSIDE_HOST)
    assert inside.authenticate([HostnameAuthenticator()]) != outside.authenticate(
        [HostnameAuthenticator()]
    )
