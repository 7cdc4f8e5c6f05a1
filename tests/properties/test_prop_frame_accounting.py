"""Property test: a frame's declared lengths account for every byte.

The server decodes frames from untrusted peers, so any damage must be a
:class:`ProtocolError` (EBADMSG, one poisoned connection), never a
silently different message.  Every proper prefix of a valid frame, the
frame plus one byte, the frame with its last slot dropped, and both
network fault kinds' output must fail to decode.
"""

import json
import struct

from hypothesis import given, settings, strategies as st

from repro.net.faults import mangle_frame
from repro.net.rpc import ProtocolError, decode_message, encode_message
from tests.helpers import forge_frame
from tests.properties.test_prop_wire_roundtrip import messages, values


def rejects(frame: bytes) -> bool:
    try:
        decode_message(frame)
    except ProtocolError:
        return True
    return False


@settings(deadline=None, max_examples=150)
@given(messages, st.data())
def test_prefixes_extra_bytes_and_fault_kinds_are_rejected(message, data):
    frame = encode_message(message)
    header_len, slots_len = struct.unpack_from(">II", frame)
    # the section boundaries, where a lax decoder would see a whole frame
    boundaries = {8, 8 + header_len, 8 + header_len + slots_len} - {len(frame)}
    for cut in boundaries | {data.draw(st.integers(0, len(frame) - 1), label="cut")}:
        assert rejects(frame[:cut])
    assert rejects(frame + data.draw(st.binary(min_size=1, max_size=1)))
    assert rejects(mangle_frame(frame))  # the corrupt fault
    assert rejects(frame[: len(frame) // 2])  # the truncate fault


@settings(deadline=None)
@given(values, st.binary(min_size=1, max_size=64))
def test_dropping_the_last_slot_is_rejected(value, payload):
    # the planted codec mutant: one payload loses its slot entry while its
    # segment still rides the frame, so the lengths no longer add up
    frame = encode_message({"field": value, "zz": payload})
    header_len, slots_len = struct.unpack_from(">II", frame)
    header_end = 8 + header_len
    slots = json.loads(frame[header_end : header_end + slots_len])
    segments = frame[header_end + slots_len :]
    dropped = json.dumps(slots[:-1]).encode() if len(slots) > 1 else b""
    assert rejects(forge_frame(frame[8:header_end], dropped, segments))
