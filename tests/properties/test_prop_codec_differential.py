"""Differential property test: the single-pass codec against the tag walk.

``tests.helpers.oracle_encode_message``/``oracle_decode_message`` are the
recursive codec that defines the wire format.  The shipped codec skips
the walk whenever it can; every frame must still be byte-identical, and
every decode must give the same message or the same exception type.
Messages lean hard on the cases the shortcut has to detect: user dicts
shaped like ``{"__b64__": ...}`` or ``{"__esc__": ...}`` at any depth,
the tag names as keys and as plain strings, bytes in every container,
and non-ASCII text (rendered as ``\\u`` escapes).
"""

from hypothesis import given, settings, strategies as st

from repro.net.rpc import decode_message, encode_message
from tests.helpers import oracle_decode_message, oracle_encode_message

TAGS = ("__b64__", "__esc__")

texts = st.one_of(
    st.sampled_from(TAGS + ("__b64", "b64", '"__b64__"', "\\u005f")),
    st.text(max_size=12),
    st.text(alphabet="\xe9\u2713\U0001d11e\u2028 _b6", max_size=6),
)
keys = st.one_of(st.sampled_from(TAGS), texts)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False),
    texts,
    st.binary(max_size=40),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        # exactly tag-shaped user dicts
        st.builds(lambda tag, v: {tag: v}, st.sampled_from(TAGS), children),
    )


values = st.recursive(scalars, _containers, max_leaves=16)
messages = st.one_of(
    st.dictionaries(keys, values, max_size=6),
    st.builds(lambda tag, v: {tag: v}, st.sampled_from(TAGS), values),
)


def outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except Exception as exc:  # noqa: BLE001 - the type is what's compared
        return ("raise", type(exc))


@settings(max_examples=400, deadline=None)
@given(messages)
def test_encode_is_byte_identical_and_decode_agrees(message):
    frame = oracle_encode_message(message)
    assert encode_message(message) == frame
    assert decode_message(frame) == oracle_decode_message(frame)


#: frames no encoder produces: escaped tag keys, malformed payloads and
#: non-dict tops, each decoded by both codecs
HAND_FRAMES = [
    b'{"x":{"\\u005f_b64__":"aGk="}}',
    b'{"x":{"__b\\u0036\\u0034__":"aGk="}}',
    b'{"x":{"\\u005f_esc__":{"__b64__":"aGk="}}}',
    b'{"x":{"__esc__":{"\\u005f_b64__":"aGk="}}}',
    b'{"x":{"__b64__":5}}',
    b'{"x":{"__b64__":null}}',
    b'{"x":{"__b64__":["aGk="]}}',
    b'{"x":{"__b64__":{"__b64__":"aGk="}}}',
    b'{"x":{"__b64__":"not base64!"}}',
    b'{"x":{"__b64__":"aGk"}}',
    b'{"x":{"__b64__":"\\u00e9"}}',
    b'{"x":{"\\u005f_b64__":5}}',
    b'{"x":{"__esc__":5}}',
    b'{"x":{"__esc__":{}}}',
    b'{"x":{"__esc__":{"__esc__":{"a":1}}}}',
    b'{"x":{"__b64__":"aGk=","y":1}}',
    b'{"__esc__":{"op":"stat"}}',
    b'{"__b64__":"aGk="}',
    b'{"\\u005f_b64__":"aGk="}',
    b'{"a":"\\u00e9\\ud800"}',
    b'[{"__b64__":"aGk="}]',
    b'"__b64__"',
    b"[1,2]",
    b"5",
    b"null",
    b"{",
    b"\xff{}",
    b"",
]


def test_hand_written_frames_decode_like_the_oracle():
    for frame in HAND_FRAMES:
        assert outcome(decode_message, frame) == outcome(oracle_decode_message, frame), frame


def test_unencodable_values_fail_alike():
    for message in ({"s": {1, 2}}, {"b": bytearray(b"x")}, {("t",): 1}, {1: 1, "a": 2}):
        assert outcome(encode_message, message) == outcome(oracle_encode_message, message)
