"""Message framing: a JSON header with its bytes values out of band."""

import pytest

from repro.net.rpc import ProtocolError, decode_message, encode_message
from tests.helpers import forge_frame


def test_scalar_roundtrip():
    msg = {"op": "stat", "n": 3, "f": 1.5, "b": True, "none": None}
    assert decode_message(encode_message(msg)) == msg


def test_bytes_roundtrip():
    msg = {"data": b"\x00\x01\xff binary", "name": "x"}
    assert decode_message(encode_message(msg)) == msg


def test_nested_structures():
    msg = {"list": [1, "a", b"b", {"inner": b"\x80"}], "d": {"k": [b"x"]}}
    assert decode_message(encode_message(msg)) == msg


def test_empty_bytes():
    assert decode_message(encode_message({"d": b""})) == {"d": b""}


def test_tuples_become_lists():
    decoded = decode_message(encode_message({"t": (1, 2)}))
    assert decoded["t"] == [1, 2]


def test_unencodable_type_raises():
    with pytest.raises(ProtocolError):
        encode_message({"bad": object()})


def nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def test_too_deep_a_message_is_a_protocol_error_both_ways():
    # deeper than the recursion limit: the codec's own error, never a
    # RecursionError that would escape the server's framing layer
    with pytest.raises(ProtocolError):
        encode_message({"deep": nested(50_000)})
    with pytest.raises(ProtocolError):
        decode_message(forge_frame(b'{"deep":' + b"[" * 50_000 + b"]" * 50_000 + b"}"))


def test_a_failed_encode_leaves_no_circular_marker_behind():
    message = {"a": {"inner": 1}, "b": object()}
    with pytest.raises(ProtocolError):
        encode_message(message)
    del message["b"]
    assert decode_message(encode_message(message)) == message


def test_circular_message_raises():
    message = {"op": "stat"}
    message["self"] = [message]
    with pytest.raises(ProtocolError):
        encode_message(message)


def test_bad_frame_raises():
    with pytest.raises(ProtocolError):
        decode_message(b"not json at all {{{")


def test_non_dict_frame_raises():
    with pytest.raises(ProtocolError):
        decode_message(forge_frame(b"[1,2]"))


def test_encoding_is_deterministic():
    msg = {"b": 1, "a": 2}
    assert encode_message(msg) == encode_message({"a": 2, "b": 1})


def test_frame_size_reflects_payload():
    small = len(encode_message({"data": b"x"}))
    big = len(encode_message({"data": b"x" * 30000}))
    # the payload rides verbatim: only its declared length grows a digit
    assert big == small + 29999 + len("30000") - len("1")


# -- dicts shaped like the retired in-band tags are plain data ----------- #


def test_user_dict_shaped_like_bytes_tag_roundtrips():
    msg = {"payload": {"__b64__": "not-base64!"}}
    assert decode_message(encode_message(msg)) == msg


def test_user_dict_shaped_like_bytes_tag_with_valid_base64_roundtrips():
    msg = {"payload": {"__b64__": "aGVsbG8="}}  # stays text, never b"hello"
    assert decode_message(encode_message(msg)) == msg


def test_user_dict_shaped_like_escape_tag_roundtrips():
    msg = {"payload": {"__esc__": {"anything": 1}}}
    assert decode_message(encode_message(msg)) == msg


def test_escape_wrapping_nests():
    msg = {"payload": {"__esc__": {"__b64__": "still-mine"}}}
    assert decode_message(encode_message(msg)) == msg


def test_escaped_dict_values_still_decode():
    msg = {"__b64__": [b"real bytes", {"deep": b"more"}]}
    frame = encode_message({"payload": msg})
    assert decode_message(frame) == {"payload": msg}


def test_bytes_still_roundtrip_alongside_collisions():
    msg = {"data": b"\x00\xff", "shadow": {"__b64__": "decoy"}}
    assert decode_message(encode_message(msg)) == msg


def test_hostile_escape_tag_with_non_dict_value_is_preserved():
    frame = forge_frame(b'{"x":{"__esc__":5}}')
    assert decode_message(frame) == {"x": {"__esc__": 5}}


# -- strict accounting ---------------------------------------------------- #


def test_slot_not_pointing_at_a_null_raises_protocol_error():
    header = b'{"op":"stat","path":"/a","n":null,"l":[null]}'
    for path in (
        b'["path"]',  # a string, not a null
        b'["op","x"]',  # through a string
        b'["nope"]',  # no such key
        b'["l",1]',  # past the list's end
        b'["l",-1]',  # no index from the end
        b'["l",true]',  # a bool is no index
        b"[]",  # the message itself
    ):
        with pytest.raises(ProtocolError):
            decode_message(forge_frame(header, b"[[%s,1]]" % path, b"x"))
    # two slots may not fill one null
    with pytest.raises(ProtocolError):
        decode_message(forge_frame(header, b'[[["n"],1],[["n"],1]]', b"xy"))
    assert decode_message(forge_frame(header, b'[[["l",0],1]]', b"x"))["l"] == [b"x"]


@pytest.mark.parametrize(
    "slots",
    [b"[]", b"{}", b"[5]", b'[[["n"]]]', b'[[["n"],-1]]', b'[[["n"],"1"]]', b'[["n",1]]'],
)
def test_malformed_slot_lists_raise(slots):
    with pytest.raises(ProtocolError):
        decode_message(forge_frame(b'{"n":null}', slots, b"x"))

