"""ChirpSession context-manager and client-lifecycle edges."""

import pytest

from repro.chirp import ChirpError, ChirpSession
from repro.chirp.auth import GlobusAuthenticator, HostnameAuthenticator
from repro.kernel.errno import Errno, KernelError
from tests.chirp.conftest import CLIENT_HOST, FRED_DN, SERVER_HOST


def test_session_context_manager(cluster, server, fred_wallet, world):
    with ChirpSession(
        cluster.network,
        CLIENT_HOST,
        SERVER_HOST,
        authenticators=[GlobusAuthenticator(fred_wallet)],
        retry=world.retry,
    ) as client:
        assert client.principal == f"globus:{FRED_DN}"
        client.mkdir("/ctx")
        assert client.readdir("/ctx") == []
    # the connection is closed on exit
    with pytest.raises(KernelError) as info:
        client.connection.call(b"late frame")
    # EPIPE after a clean close; RESET if a fault already broke the wire
    assert info.value.errno in (Errno.EPIPE, Errno.ECONNRESET)


def test_session_closes_even_on_body_error(cluster, server, fred_wallet, world):
    with pytest.raises(RuntimeError):
        with ChirpSession(
            cluster.network,
            CLIENT_HOST,
            SERVER_HOST,
            authenticators=[GlobusAuthenticator(fred_wallet)],
            retry=world.retry,
        ) as client:
            raise RuntimeError("boom")
    assert client.connection.closed


def test_session_with_hostname_auth(cluster, server, world):
    with ChirpSession(
        cluster.network,
        CLIENT_HOST,
        SERVER_HOST,
        authenticators=[HostnameAuthenticator()],
        retry=world.retry,
    ) as client:
        assert client.whoami() == f"hostname:{CLIENT_HOST}"


def test_client_close_idempotent(fred):
    fred.close()
    fred.close()


def test_server_rejects_ops_on_closed_client(fred):
    fred.close()
    with pytest.raises(ChirpError) as info:
        fred.stat("/")
    assert info.value.errno is Errno.EPIPE


def test_access_distinguishes_denial_from_absence(fred):
    fred.mkdir("/w")
    fred.put(b"x", "/w/f")
    assert fred.access("/w/f", "r") is True
    with pytest.raises(ChirpError) as info:
        fred.access("/w/ghost", "r")
    assert info.value.errno is Errno.ENOENT
