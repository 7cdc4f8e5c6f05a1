"""Property test: wire codec round-trips, bytes at any depth.

Payloads travel out of band, so nothing a user sends can be mistaken for
one.  These properties lean on the shapes that used to be dangerous:
keys drawn from a mix of ordinary text *and* the retired in-band tag
names ``__b64__``/``__esc__``, dicts shaped exactly like those tags,
bytes inside lists, tuples and dicts at every depth, and batch
envelopes carrying many payload-bearing frames.
"""

from hypothesis import given, settings, strategies as st

from repro.chirp.protocol import BATCH_OP
from repro.net.rpc import decode_message, encode_message
from tests.properties.test_prop_rpc import keys as plain_keys, scalars as plain_scalars

TAGS = ("__b64__", "__esc__")
tag_keys = st.sampled_from(TAGS)
keys = st.one_of(plain_keys, tag_keys)
scalars = st.one_of(plain_scalars, st.sampled_from(TAGS))

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        # exactly tag-shaped user dicts
        st.builds(lambda tag, v: {tag: v}, tag_keys, children),
    ),
    max_leaves=16,
)

messages = st.one_of(
    st.dictionaries(keys, values, max_size=5),
    # batch envelopes: many payload-bearing frames in one message
    st.builds(
        lambda frames: {"op": BATCH_OP, "frames": frames, "idem": "s:1"},
        st.lists(st.dictionaries(keys, values, min_size=1), min_size=1, max_size=8),
    ),
)


def as_decoded(value):
    """What the wire gives back: tuples arrive as lists."""
    if isinstance(value, dict):
        return {k: as_decoded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_decoded(v) for v in value]
    return value


@settings(deadline=None, max_examples=200)
@given(messages)
def test_roundtrip_with_tag_shaped_keys(message):
    assert decode_message(encode_message(message)) == as_decoded(message)


@settings(deadline=None)
@given(values)
def test_roundtrip_under_a_fixed_field(value):
    # every generated value survives when nested one level down, the shape
    # all real RPC payloads take ({"op": ..., field: value})
    message = {"field": value}
    assert decode_message(encode_message(message)) == as_decoded(message)


@settings(deadline=None)
@given(st.dictionaries(tag_keys, values, min_size=1, max_size=2))
def test_roundtrip_of_dicts_made_only_of_tags(message):
    # the whole message is old-tag keys
    assert decode_message(encode_message(message)) == as_decoded(message)

