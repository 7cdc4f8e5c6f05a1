"""Telemetry on a live Chirp server stays bounded and keeps its traces sane.

Identity boxing hands every grid principal its own global name, so a
server meets an unbounded stream of principals.  The registry must not
grow with them: identity lives on spans and in one exemplar per denial
series, never in a metric label.  The server also refuses to take a
remote peer's ``trace`` field on trust: only the shape the client writes
is adopted as a span's parent.
"""

import pytest

from repro.chirp import ChirpClient, ChirpError, UnixAuthenticator
from repro.chirp.protocol import request
from repro.core import Acl, Rights, instrument
from repro.net import Cluster
from repro.net.rpc import decode_message
from tests.helpers import make_server

SERVER = "server1.nowhere.edu"


def make_world(world):
    """A server with telemetry whose root lets every unix user list and
    read but not write."""
    cluster = Cluster()
    machine = cluster.add_machine(SERVER)
    telemetry = instrument(machine)
    owner = machine.add_user("dthain")
    server = make_server(machine, owner, read_cache=world.read_cache, network=cluster.network)
    acl = Acl()
    acl.set_entry("unix:*", Rights.parse("rl"))
    server.set_root_acl(acl)
    server.serve()
    return cluster, server, telemetry


def visit(cluster, user: str) -> None:
    """One session: an allowed stat and a denied mkdir."""
    client = ChirpClient.connect(cluster.network, SERVER, SERVER)
    client.authenticate([UnixAuthenticator(user)])
    client.stat("/")
    with pytest.raises(ChirpError):
        client.mkdir("/mine")
    client.close()


def series(telemetry) -> int:
    snap = telemetry.snapshot(spans=0)
    return len(snap["counters"]) + len(snap["gauges"]) + len(snap["histograms"])


def test_series_count_does_not_grow_with_the_number_of_principals(world):
    cluster, _server, telemetry = make_world(world)
    for i in range(100):
        visit(cluster, f"a{i:05d}")
    after_100 = series(telemetry)
    for i in range(10_000):
        visit(cluster, f"b{i:05d}")
    assert series(telemetry) == after_100
    snap = telemetry.snapshot(spans=0)
    assert not any("identity" in key for key in snap["counters"])
    assert not any("identity" in key for key in snap["histograms"])
    denials = {k: v for k, v in snap["counters"].items() if k.startswith("pipeline.denials")}
    assert denials == {"pipeline.denials{errno=EACCES,op=mkdir,surface=chirp}": 10_100}
    assert snap["exemplars"]["pipeline.denials{errno=EACCES,op=mkdir,surface=chirp}"] == {
        "identity": "unix:b09999",
        "errno": "EACCES",
    }


@pytest.mark.parametrize(
    "trace",
    [{"trace_id": "t1", "span_id": "s1"}, "t" + "1" * (1 << 20) + "/s1", "a/b/c"],
    ids=["dict", "1MiB-string", "three-parts"],
)
def test_a_malformed_wire_trace_starts_a_fresh_root_and_is_counted(trace, world):
    cluster, _server, telemetry = make_world(world)
    client = ChirpClient.connect(cluster.network, SERVER, SERVER)
    client.authenticate([UnixAuthenticator("mallory")])
    reply = decode_message(
        client.connection.call(request("stat", path="/", trace=trace))
    )
    assert reply["ok"] is True
    assert telemetry.counter("chirp.bad_trace").value == 1
    span = telemetry.spans_named("chirp:stat")[-1]
    assert span.parent_id == ""
    assert span.trace_id.startswith("t") and len(span.trace_id) < 32
    assert span.identity == "unix:mallory"


def test_a_well_formed_wire_trace_is_adopted(world):
    cluster, _server, telemetry = make_world(world)
    client = ChirpClient.connect(cluster.network, SERVER, SERVER)
    client.authenticate([UnixAuthenticator("fred")])
    reply = decode_message(
        client.connection.call(request("stat", path="/", trace="t000042/s000043"))
    )
    assert reply["ok"] is True
    span = telemetry.spans_named("chirp:stat")[-1]
    assert (span.trace_id, span.parent_id) == ("t000042", "s000043")
    assert telemetry.counter("chirp.bad_trace").value == 0
