"""Wire protocol framing for Chirp."""

from types import SimpleNamespace

import pytest

from repro.chirp import CHIRP_PORT, ChirpClient, RetryPolicy
from repro.chirp.protocol import (
    ALL_OPS,
    ChirpError,
    StatPayload,
    error_response,
    ok_response,
    parse_request,
    parse_response,
    request,
)
from repro.kernel.errno import Errno
from repro.kernel.timing import Clock, CostModel
from repro.net.network import Network
from repro.net.rpc import ProtocolError, encode_message


def test_request_roundtrip():
    frame = request("open", path="/f", flags=2, mode=0o644)
    message = parse_request(frame)
    assert message["op"] == "open"
    assert message["path"] == "/f"


def test_unknown_op_rejected_at_build_time():
    with pytest.raises(ProtocolError):
        request("fork_bomb")


def test_unknown_op_rejected_at_parse_time():
    from repro.net.rpc import encode_message

    with pytest.raises(ProtocolError):
        parse_request(encode_message({"op": "fork_bomb"}))


def test_missing_op_rejected():
    from repro.net.rpc import encode_message

    with pytest.raises(ProtocolError):
        parse_request(encode_message({"path": "/f"}))


def test_ok_response_roundtrip():
    reply = parse_response(ok_response(fd=5, data=b"\x00\x01"))
    assert reply["fd"] == 5
    assert reply["data"] == b"\x00\x01"


def test_error_response_raises_chirp_error():
    with pytest.raises(ChirpError) as info:
        parse_response(error_response(Errno.EACCES, "denied"))
    assert info.value.errno is Errno.EACCES
    assert "denied" in str(info.value)


def test_error_without_errno_defaults_to_eio():
    from repro.net.rpc import encode_message

    with pytest.raises(ChirpError) as info:
        parse_response(encode_message({"ok": False}))
    assert info.value.errno is Errno.EIO


def test_exec_and_aclcheck_are_protocol_ops():
    assert "exec" in ALL_OPS
    assert "aclcheck" in ALL_OPS
    assert "auth" in ALL_OPS


def test_stat_payload_roundtrip():
    payload = StatPayload(
        size=10, is_dir=False, is_file=True, is_symlink=False, nlink=2, mtime_ns=5
    )
    assert StatPayload.from_fields(payload.to_fields()) == payload


def test_stat_payload_from_kernel_stat(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/f", b"12345")
    st = machine.kcall_x(alice_task, "stat", "/home/alice/f")
    payload = StatPayload.from_stat(st)
    assert payload.size == 5
    assert payload.is_file and not payload.is_dir


@pytest.mark.parametrize("code", [99999, "x", None])
@pytest.mark.parametrize("retry", [None, RetryPolicy(max_attempts=3)], ids=["once", "retrying"])
def test_unknown_errno_in_a_reply_is_a_protocol_error(code, retry):
    reply = encode_message({"ok": False, "errno": code, "error": "?"})
    with pytest.raises(ProtocolError):
        parse_response(reply)
    network = Network(clock=Clock(), costs=CostModel())
    network.add_host("srv")
    network.add_host("cli")
    network.listen("srv", CHIRP_PORT, lambda peer: SimpleNamespace(handle=lambda f: reply))
    client = ChirpClient.connect(network, "cli", "srv", retry=retry)
    with pytest.raises(ChirpError) as info:
        client.whoami()
    assert info.value.errno is Errno.EBADMSG  # mapped, not a bare ValueError
    if retry is not None:
        assert client.connection.closed  # framing is suspect: never reused
