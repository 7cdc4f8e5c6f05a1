"""Property tests: the wire codec."""

import json
import struct

from hypothesis import given, settings, strategies as st

from repro.net.rpc import decode_message, encode_message

keys = st.text(
    alphabet=st.characters(codec="ascii", min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=10,
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=200),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)

messages = st.dictionaries(keys, values, max_size=6)


@settings(deadline=None)
@given(messages)
def test_roundtrip(message):
    assert decode_message(encode_message(message)) == message


@settings(deadline=None)
@given(messages)
def test_encoding_deterministic(message):
    assert encode_message(message) == encode_message(message)


@given(st.binary(max_size=5000))
def test_bytes_payloads_exact(data):
    assert decode_message(encode_message({"d": data}))["d"] == data


@given(messages)
def test_header_is_utf8_json_and_segments_are_verbatim(message):
    frame = encode_message(message)
    header_len, slots_len = struct.unpack_from(">II", frame)
    header_end = 8 + header_len
    header = json.loads(frame[8:header_end].decode("utf-8"))
    slots = json.loads(frame[header_end : header_end + slots_len]) if slots_len else []
    offset = header_end + slots_len
    for path, length in slots:
        value, null = message, header
        for step in path:
            value, null = value[step], null[step]
        assert null is None
        assert frame[offset : offset + length] == value  # the payload, verbatim
        offset += length
    assert offset == len(frame)
