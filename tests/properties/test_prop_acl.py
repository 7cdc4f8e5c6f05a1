"""Property tests: ACL serialization and evaluation."""

from hypothesis import given, strategies as st

from repro.core.acl import Acl, AclEntry
from repro.core.rights import RIGHT_LETTERS, Rights

subject_chars = st.characters(
    codec="ascii", exclude_categories=("Zs", "Cc"), exclude_characters="#"
)
subjects = st.text(alphabet=subject_chars, min_size=1, max_size=30)

rights_strat = st.builds(
    Rights,
    flags=st.sets(st.sampled_from(list(RIGHT_LETTERS)), min_size=1).map(frozenset),
    reserve=st.one_of(
        st.none(),
        st.sets(st.sampled_from(list(RIGHT_LETTERS)), min_size=1).map(frozenset),
    ),
)

entries = st.builds(AclEntry, subject=subjects, rights=rights_strat)
acls = st.builds(Acl, entries=st.lists(entries, max_size=8))


@given(acls)
def test_render_parse_roundtrip(acl):
    again = Acl.parse(acl.render())
    assert again.subjects() == acl.subjects()
    for entry in acl:
        assert again.rights_for(entry.subject).has_all("".join(entry.rights.flags))


@given(acls, subjects)
def test_rights_is_union_of_matching_entries(acl, identity):
    expected = Rights.none()
    for entry in acl:
        if entry.matches(identity):
            expected = expected | entry.rights
    assert acl.rights_for(identity) == expected


@given(acls, subjects, rights_strat)
def test_set_entry_then_lookup(acl, subject, rights):
    acl.set_entry(subject, rights)
    # after a set, exactly one entry for the subject exists
    assert acl.subjects().count(subject) == 1


@given(acls, subjects)
def test_remove_entry_removes(acl, subject):
    acl.remove_entry(subject)
    assert subject not in acl.subjects()


@given(acls)
def test_copy_equal_but_independent(acl):
    twin = acl.copy()
    assert twin.render() == acl.render()
    twin.set_entry("fresh-subject", Rights.full())
    assert "fresh-subject" not in acl.subjects()


@given(acls, subjects)
def test_allows_consistent_with_rights_for(acl, identity):
    rights = acl.rights_for(identity)
    for letter in RIGHT_LETTERS:
        assert acl.allows(identity, letter) == rights.has(letter)


# -- the compiled form never serves stale rights --------------------------- #

SUBJECTS = ("fred", "wilma", "fr*", "*", "w?lma", "*ma", "barney")
IDENTITIES = ("fred", "wilma", "wxlma", "frodo", "barney", "betty")

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.sampled_from(SUBJECTS),
            st.one_of(rights_strat, st.just(Rights.none())),
        ),
        st.tuples(st.just("remove"), st.sampled_from(SUBJECTS)),
    ),
    max_size=25,
)


def reference_rights(acl, identity):
    """Union over matching entries, one uncompiled match per entry."""
    expected = Rights.none()
    for entry in acl:
        if entry.matches(identity):
            expected = expected | entry.rights
    return expected


@given(steps)
def test_interleaved_mutations_never_serve_stale_rights(script):
    acl = Acl.parse("fred r\nfred w\n*ma l\n")  # a duplicated exact subject
    for step in script:
        # every mutation lands on an ACL that was compiled just before
        for identity in IDENTITIES:
            assert acl.rights_for(identity) == reference_rights(acl, identity)
        if step[0] == "set":
            acl.set_entry(step[1], step[2])
        else:
            acl.remove_entry(step[1])
    for identity in IDENTITIES:
        assert acl.rights_for(identity) == reference_rights(acl, identity)
