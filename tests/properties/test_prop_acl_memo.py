"""Property: the compiled ACL answers as a fresh one does.

An :class:`Acl` memoizes, on its compiled form, the rights of each
identity it was asked about and its rendered text (see the ``acl.py``
module docstring).  A memo that outlived a mutation would keep granting
a revoked right, so a random interleaving of ``set_entry``,
``remove_entry``, ``copy``, ``parse`` and ``for_owner`` with
``rights_for`` and ``render`` is checked after every step against
``Acl(entries=list(acl))``, which has never compiled anything.

Identities are drawn to match an exact entry, a wildcard, both, none, or
to be invalid; an invalid one must raise :class:`IdentityError` on every
call, so it must never be remembered.  The runs go past the memo's cap,
both at its real value and at a cap of 2.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import acl as acl_mod
from repro.core.acl import RIGHTS_MEMO_ENTRIES, Acl
from repro.core.identity import IdentityError
from repro.core.rights import Rights

REALM = "globus:/O=Nowhere/CN="
#: exact subjects; ``fred`` and ``heidi`` are also covered by a wildcard
EXACT = [f"{REALM}fred", f"{REALM}heidi", "hostname:laptop", "unix:dthain"]
WILDCARDS = [f"{REALM}*", "globus:/O=Nowhere/CN=?ed", "hostname:*.edu"]
#: matched by a wildcard only
WILD_ONLY = [f"{REALM}zed", "hostname:node.cs.edu"]
#: matched by nothing any step can grant
UNMATCHED = ["kerberos:fred@NOWHERE.EDU", "unix:root"]
INVALID = ["", "two words", "tab\there", "line\nbreak", "bell\x07"]
#: enough distinct valid identities to run well past the memo cap
CROWD = [f"{REALM}u{n:02d}" for n in range(RIGHTS_MEMO_ENTRIES + 8)]

PROBES = EXACT[:2] + WILD_ONLY[:1] + UNMATCHED[:1] + INVALID[:2]

valid = st.sampled_from(EXACT + WILD_ONLY + UNMATCHED + CROWD)
identities = st.one_of(valid, st.sampled_from(INVALID))
subjects = st.sampled_from(EXACT + WILDCARDS + CROWD[:3])
grants = st.sampled_from(["rl", "rwlxa", "l", "w", "v(rwl)", "av(r)", "-"]).map(
    Rights.parse
)

steps = st.one_of(
    st.tuples(st.just("set"), subjects, grants),
    st.tuples(st.just("remove"), subjects),
    st.tuples(st.just("copy")),
    st.tuples(st.just("parse")),
    st.tuples(st.just("for_owner"), valid),
    st.tuples(st.just("ask"), identities),
    st.tuples(st.just("render")),
)


def answer(acl: Acl, identity: str):
    """What ``rights_for`` gives, or the error class it raises."""
    try:
        return acl.rights_for(identity)
    except IdentityError:
        return IdentityError


def assert_fresh(acl: Acl, asked: list[str]) -> None:
    fresh = Acl(entries=list(acl))
    for identity in [*PROBES, *asked]:
        assert answer(acl, identity) == answer(fresh, identity), identity
    assert acl.render() == fresh.render()
    memo = acl._compiled.memo
    assert len(memo) <= acl_mod.RIGHTS_MEMO_ENTRIES
    assert not set(memo) & set(INVALID)


def run(script) -> None:
    acl = Acl.for_owner(EXACT[0])
    acl.set_entry(WILDCARDS[0], Rights.parse("rl"))
    #: an ACL a ``copy`` step left behind; it must not see the copy's edits
    left: Acl | None = None
    asked: list[str] = []
    for step in script:
        kind = step[0]
        if kind == "set":
            acl.set_entry(step[1], step[2])
        elif kind == "remove":
            acl.remove_entry(step[1])
        elif kind == "copy":
            left, acl = acl, acl.copy()
        elif kind == "parse":
            acl = Acl.parse(acl.render())
        elif kind == "for_owner":
            acl = Acl.for_owner(step[1])
        elif kind == "ask":
            asked = [*asked[-7:], step[1]]
            assert answer(acl, step[1]) == answer(Acl(entries=list(acl)), step[1])
        else:
            assert acl.render() == Acl(entries=list(acl)).render()
        assert_fresh(acl, asked)
        if left is not None:
            assert_fresh(left, asked)


@pytest.mark.parametrize("cap", [RIGHTS_MEMO_ENTRIES, 2])
@settings(deadline=None, max_examples=60)
@given(script=st.lists(steps, min_size=1, max_size=60))
def test_the_compiled_acl_answers_as_a_fresh_one(cap, script):
    with mock.patch.object(acl_mod, "RIGHTS_MEMO_ENTRIES", cap):
        run(script)


def test_an_invalid_identity_fails_on_every_call():
    acl = Acl.for_owner(EXACT[0])
    acl.set_entry("*", Rights.parse("l"))  # a wildcard that matches anything
    for identity in INVALID:
        for _ in range(3):
            with pytest.raises(IdentityError):
                acl.rights_for(identity)
    assert acl._compiled.memo == {}


def test_a_crowd_past_the_cap_keeps_the_memo_bounded():
    acl = Acl.for_owner(EXACT[0])
    acl.set_entry(WILDCARDS[0], Rights.parse("rl"))
    for identity in CROWD * 2:
        assert str(acl.rights_for(identity)) == "rl"
        assert 1 <= len(acl._compiled.memo) <= RIGHTS_MEMO_ENTRIES
    # a grant reaches every identity the old memo had answered
    acl.set_entry(WILDCARDS[0], Rights.parse("rwl"))
    assert acl._compiled is None
    assert {str(acl.rights_for(identity)) for identity in CROWD} == {"rwl"}
