"""Property test: the Chirp server survives arbitrary garbage frames.

A network-facing service run by an unprivileged user is still a security
boundary; random bytes, truncated JSON, wrong-typed fields, and surprise
ops must all come back as clean error frames — never an exception, never a
hung connection, never state corruption.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Acl, Rights
from repro.net import Cluster, decode_message, encode_message
from tests.helpers import make_server


def build_server(world):
    cluster = Cluster()
    cluster.add_machine("srv")
    cluster.add_machine("cli")
    machine = cluster.machine("srv")
    owner = machine.add_user("op")
    server = make_server(machine, owner, read_cache=world.read_cache, network=cluster.network)
    acl = Acl()
    acl.set_entry("hostname:*", Rights.parse("rwlxa"))
    server.set_root_acl(acl)
    server.serve()
    return cluster, server


raw_frames = st.binary(max_size=300)

json_keys = st.sampled_from(
    ["op", "path", "fd", "flags", "mode", "data", "offset", "length", "subject", "rights", "method", "payload", "args", "cwd"]
)
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=30),
    st.binary(max_size=50),
    st.lists(st.integers(), max_size=3),
)
shaped_messages = st.dictionaries(json_keys, json_values, max_size=6)

op_names = st.sampled_from(
    ["open", "close", "pread", "pwrite", "stat", "mkdir", "rename", "setacl", "exec", "auth", "whoami", "frobnicate", ""]
)


@settings(max_examples=80, deadline=None)
@given(raw_frames)
def test_random_bytes_get_error_frames(world, frame):
    cluster, _server = build_server(world)
    conn = cluster.network.connect("cli", "srv", 9094)
    reply = decode_message(conn.handler.handle(frame))
    assert reply["ok"] is False


@settings(max_examples=80, deadline=None)
@given(op_names, shaped_messages)
def test_malformed_requests_never_crash(world, op, fields):
    cluster, server = build_server(world)
    conn = cluster.network.connect("cli", "srv", 9094)
    message = dict(fields)
    message["op"] = op
    reply = decode_message(conn.handler.handle(encode_message(message)))
    assert isinstance(reply.get("ok"), bool)
    # whatever happened, the connection still works for a legitimate login
    login = decode_message(
        conn.handler.handle(
            encode_message({"op": "auth", "method": "hostname", "payload": {}})
        )
    )
    assert login["ok"] is True


@settings(max_examples=40, deadline=None)
@given(shaped_messages)
def test_authenticated_garbage_cannot_corrupt_export(world, fields):
    """Even authenticated, malformed ops must leave the export intact."""
    cluster, server = build_server(world)
    conn = cluster.network.connect("cli", "srv", 9094)
    conn.handler.handle(
        encode_message({"op": "auth", "method": "hostname", "payload": {}})
    )
    for op in ("open", "pwrite", "rename", "setacl", "exec"):
        message = dict(fields)
        message["op"] = op
        reply = decode_message(conn.handler.handle(encode_message(message)))
        assert isinstance(reply.get("ok"), bool)
    # the export root and its ACL survived
    acl = server.policy.acl_of(server.export_root)
    assert acl is not None and acl.rights_for("hostname:cli").has_all("rwlxa")
