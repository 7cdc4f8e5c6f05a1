"""Property: ``StatPayload`` and the stat reply skip ``__init__`` unseen.

``StatPayload.from_stat`` and ``from_fields`` fill a frozen record in
directly, and the server builds its ``stat``/``lstat``/``fstat`` replies
with :func:`stat_fields` without any record (DESIGN.md §12).  As
``test_prop_stat_of.py`` does for ``stat_of``, this holds them to the
dataclass ``__init__``: the same record (equal, same hash and repr, still
frozen), the same errors for badly typed wire fields, and the same reply
frame.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.chirp.protocol import StatPayload, ok_response, stat_fields
from repro.kernel.inode import StatResult

ints = st.integers(min_value=0, max_value=2**63)

stat_results = st.builds(
    StatResult,
    st_ino=ints,
    st_mode=st.integers(min_value=0, max_value=0o177777),
    st_nlink=ints,
    st_uid=ints,
    st_gid=ints,
    st_size=ints,
    st_atime_ns=ints,
    st_mtime_ns=ints,
    st_ctime_ns=ints,
)

FIELDS = ("size", "is_dir", "is_file", "is_symlink", "nlink", "mtime_ns", "mode")

#: what a peer may put in a field: good values and every JSON type
wire_values = st.one_of(
    ints,
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["12", "x", "", " 7 ", "0o7"]),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)

#: every field drawn from ``wire_values``, then a few dropped
wire_fields = st.builds(
    lambda fields, dropped: {k: v for k, v in fields.items() if k not in dropped},
    st.fixed_dictionaries({name: wire_values for name in FIELDS}),
    st.sets(st.sampled_from(FIELDS), max_size=2),
)


def init_from_stat(st_result: StatResult) -> StatPayload:
    """``from_stat`` as the dataclass ``__init__`` builds it."""
    return StatPayload(
        size=st_result.st_size,
        is_dir=st_result.is_dir,
        is_file=st_result.is_file,
        is_symlink=st_result.is_symlink,
        nlink=st_result.st_nlink,
        mtime_ns=st_result.st_mtime_ns,
        mode=st_result.st_mode & 0o7777,
    )


def init_from_fields(fields: dict) -> StatPayload:
    """``from_fields`` as the dataclass ``__init__`` builds it."""
    return StatPayload(
        size=int(fields["size"]),
        is_dir=bool(fields["is_dir"]),
        is_file=bool(fields["is_file"]),
        is_symlink=bool(fields["is_symlink"]),
        nlink=int(fields["nlink"]),
        mtime_ns=int(fields["mtime_ns"]),
        mode=int(fields.get("mode", 0o644)),
    )


def assert_same_record(got: StatPayload, want: StatPayload) -> None:
    assert type(got) is StatPayload
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    for name in FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(got, name)
    assert got == want  # the refused writes changed nothing


@given(stat_results)
def test_from_stat_matches_the_dataclass_init(st_result):
    assert_same_record(StatPayload.from_stat(st_result), init_from_stat(st_result))


@given(stat_results)
def test_the_stat_reply_is_the_frame_the_record_gave(st_result):
    want = init_from_stat(st_result).to_fields()
    got = stat_fields(st_result)
    assert got == want and list(got) == list(want)
    assert ok_response(**got) == ok_response(**want)


@given(stat_results)
def test_from_fields_matches_the_dataclass_init(st_result):
    fields = init_from_stat(st_result).to_fields()
    assert_same_record(StatPayload.from_fields(fields), init_from_fields(fields))
    del fields["mode"]  # a peer that predates the mode field
    assert_same_record(StatPayload.from_fields(fields), init_from_fields(fields))


@given(wire_fields)
def test_bad_wire_fields_raise_what_the_init_path_raised(fields):
    try:
        want = init_from_fields(fields)
    except (KeyError, TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            StatPayload.from_fields(fields)
        assert str(info.value) == str(exc)
    else:
        assert_same_record(StatPayload.from_fields(fields), want)
