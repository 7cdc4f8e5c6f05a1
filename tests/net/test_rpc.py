"""Message framing: JSON envelope with tagged bytes."""

import pytest

from repro.net.rpc import ProtocolError, decode_message, encode_message


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


def test_bad_frame_raises():
    with pytest.raises(ProtocolError):
        decode_message(b"not json at all {{{")


def test_non_dict_frame_raises():
    import json

    with pytest.raises(ProtocolError):
        decode_message(json.dumps([1, 2]).encode())


def test_encoding_is_deterministic():
    msg = {"b": 1, "a": 2}
    assert encode_message(msg) == encode_message({"a": 2, "b": 1})


def test_frame_size_reflects_payload():
    small = len(encode_message({"data": b"x"}))
    big = len(encode_message({"data": b"x" * 30000}))
    assert big > small + 30000  # base64 expansion included


# -- tag-collision escaping --------------------------------------------------- #


def test_user_dict_shaped_like_bytes_tag_roundtrips():
    # a user payload that *looks* like the wire encoding of bytes must not
    # be decoded as bytes — "not-base64!" isn't even valid base64
    msg = {"payload": {"__b64__": "not-base64!"}}
    assert decode_message(encode_message(msg)) == msg


def test_user_dict_shaped_like_bytes_tag_with_valid_base64_roundtrips():
    msg = {"payload": {"__b64__": "aGVsbG8="}}  # would decode to b"hello"
    assert decode_message(encode_message(msg)) == msg


def test_user_dict_shaped_like_escape_tag_roundtrips():
    msg = {"payload": {"__esc__": {"anything": 1}}}
    assert decode_message(encode_message(msg)) == msg


def test_escape_wrapping_nests():
    msg = {"payload": {"__esc__": {"__b64__": "still-mine"}}}
    assert decode_message(encode_message(msg)) == msg


def test_escaped_dict_values_still_decode():
    # values inside an escaped collision dict keep full wire semantics
    msg = {"__b64__": [b"real bytes", {"deep": b"more"}]}
    frame = encode_message({"payload": msg})
    assert decode_message(frame) == {"payload": msg}


def test_bytes_still_roundtrip_alongside_collisions():
    msg = {"data": b"\x00\xff", "shadow": {"__b64__": "decoy"}}
    assert decode_message(encode_message(msg)) == msg


def test_hostile_escape_tag_with_non_dict_value_is_preserved():
    import json

    # a frame forged by a peer, not produced by encode_message: the escape
    # tag wrapping a non-dict must not crash the decoder
    frame = json.dumps({"x": {"__esc__": 5}}).encode()
    assert decode_message(frame) == {"x": {"__esc__": 5}}


def test_non_string_bytes_tag_payload_raises_protocol_error():
    # a peer-forged tag whose payload is not text must be a framing error,
    # not a TypeError from base64 escaping the decoder
    with pytest.raises(ProtocolError):
        decode_message(b'{"op":"stat","path":{"__b64__":5}}')
    # the same tag spelled with a \u escape in its key
    with pytest.raises(ProtocolError):
        decode_message(b'{"op":"stat","path":{"\\u005f_b64__":[1]}}')
