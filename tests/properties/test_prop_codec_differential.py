"""Differential property test: the wire codec against its json.dumps /
json.loads reference.

The codec drives CPython's C JSON encoder and scanner directly instead of
through ``json.dumps``/``json.loads``.  Wire length is simulated time and
the server decodes frames from untrusted peers, so the shipped codec must
write the very bytes the reference writes, and reach the same verdict on
every frame: the same message, or a :class:`ProtocolError` with the same
text (a server's EBADMSG reply carries that text).
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.chirp.protocol import BATCH_OP
from repro.net.faults import mangle_frame
from repro.net.rpc import ProtocolError, decode_message, encode_message
from tests.helpers import forge_frame, oracle_decode_message, oracle_encode_message

text = st.one_of(
    st.text(max_size=12),  # non-ASCII included
    st.sampled_from(["", "é", "日本", "\ud800", "\x00\x1f", '"\\/', "__b64__"]),
)
big_ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)
floats = st.one_of(
    st.floats(),  # NaN and both infinities included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e308]),
)
scalars = st.one_of(
    st.none(), st.booleans(), big_ints, floats, text, st.binary(max_size=40)
)
number_keys = st.one_of(big_ints, floats, st.booleans())
any_keys = st.one_of(text, number_keys, st.none())

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text, children, max_size=4),
        # non-str keys, which the header spells as JSON text
        st.dictionaries(number_keys, children, max_size=3),
        # mixed key types, most of which cannot be sorted
        st.dictionaries(any_keys, children, max_size=2),
    ),
    max_leaves=16,
)

messages = st.one_of(
    st.dictionaries(text, values, max_size=5),
    st.dictionaries(any_keys, values, max_size=3),
    # batch envelopes: many payload-bearing frames in one message
    st.builds(
        lambda frames: {"op": BATCH_OP, "frames": frames, "idem": "s:1"},
        st.lists(st.dictionaries(text, values, min_size=1), min_size=1, max_size=6),
    ),
)


def outcome(codec, argument):
    """What ``codec`` makes of ``argument``: its result, or the text of
    the ProtocolError it raised."""
    try:
        return codec(argument)
    except ProtocolError as exc:
        return ProtocolError, str(exc)


def assert_same_decode(frame: bytes) -> None:
    got = outcome(decode_message, frame)
    want = outcome(oracle_decode_message, frame)
    if got != want:
        # NaN is not equal to itself: compare what the messages encode to
        assert isinstance(got, dict) and isinstance(want, dict), (got, want)
        assert oracle_encode_message(got) == oracle_encode_message(want)


def header_and_rest(frame: bytes) -> tuple[bytes, bytes, bytes]:
    header_len, slots_len = struct.unpack_from(">II", frame)
    header_end = 8 + header_len
    slots_end = header_end + slots_len
    return frame[8:header_end], frame[header_end:slots_end], frame[slots_end:]


@settings(deadline=None, max_examples=300)
@given(messages)
def test_encode_writes_the_reference_bytes(message):
    assert outcome(encode_message, message) == outcome(oracle_encode_message, message)


REFERENCE_FRAMES = [
    encode_message({"op": "stat", "path": "/d/ü", "idem": "s:1"}),
    encode_message({"op": "pwrite", "fd": 3, "offset": 2**70, "data": b"\x00\xff" * 4}),
    encode_message({"ok": True, "value": [1.5, float("nan"), None, {"k": b"x"}], "n": -0.0}),
    encode_message(
        {"op": BATCH_OP, "frames": [{"op": "stat", "path": "/a"}, {"op": "put", "d": b"yz"}]}
    ),
]


@pytest.mark.parametrize("frame", REFERENCE_FRAMES, ids=["stat", "pwrite", "reply", "batch"])
def test_every_truncation_gets_the_reference_verdict(frame):
    for cut in range(len(frame) + 1):
        assert_same_decode(frame[:cut])


@settings(deadline=None, max_examples=200)
@given(messages)
def test_round_trip_and_fault_mangling_get_the_reference_verdict(message):
    try:
        frame = oracle_encode_message(message)
    except ProtocolError:
        return
    assert_same_decode(frame)
    assert_same_decode(mangle_frame(frame))  # the corrupt fault
    assert_same_decode(frame[: len(frame) // 2])  # the truncate fault


@settings(deadline=None, max_examples=300)
@given(messages, st.data())
def test_byte_flips_get_the_reference_verdict(message, data):
    try:
        frame = bytearray(oracle_encode_message(message))
    except ProtocolError:
        return
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        at = data.draw(st.integers(0, len(frame) - 1), label="at")
        frame[at] = data.draw(st.integers(0, 255), label="byte")
    assert_same_decode(bytes(frame))


padding = st.text(
    alphabet=st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "\ufeff"]),
    max_size=4,
)


@settings(deadline=None, max_examples=300)
@given(messages, padding, padding, st.booleans())
def test_whitespace_padded_sections_get_the_reference_verdict(message, before, after, slots):
    try:
        header, slot_list, segments = header_and_rest(oracle_encode_message(message))
    except ProtocolError:
        return

    def pad(section: bytes) -> bytes:
        return (before + section.decode() + after).encode()

    if slots and slot_list:
        assert_same_decode(forge_frame(header, pad(slot_list), segments))
    else:
        assert_same_decode(forge_frame(pad(header), slot_list, segments))
