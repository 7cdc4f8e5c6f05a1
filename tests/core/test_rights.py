"""Rights strings: parsing, the reserve right, algebra."""

from dataclasses import FrozenInstanceError
from itertools import combinations, product

import pytest

from repro.core.rights import RIGHT_LETTERS, Rights, RightsError
from tests.helpers import oracle_has_all, oracle_union


def test_parse_plain_letters():
    rights = Rights.parse("rwlax")
    assert rights.has_all("rwlax")
    assert rights.reserve is None


def test_parse_subset():
    rights = Rights.parse("rl")
    assert rights.has("r") and rights.has("l")
    assert not rights.has("w") and not rights.has("a") and not rights.has("x")


def test_parse_reserve_only():
    rights = Rights.parse("v(rwlax)")
    assert rights.has("v")
    assert not rights.has("r")
    assert rights.reserve_rights().has_all("rwlax")


def test_parse_mixed_letters_and_reserve():
    rights = Rights.parse("rlxv(rwlax)")
    assert rights.has_all("rlx")
    assert rights.has("v")
    assert rights.reserve_rights().has_all("rwlax")


def test_parse_letters_after_reserve_group():
    rights = Rights.parse("v(rl)wa")
    assert rights.has_all("wa")
    assert rights.reserve == frozenset("rl")


def test_dash_is_empty():
    assert Rights.parse("-").is_empty
    assert Rights.parse("").is_empty


@pytest.mark.parametrize("bad", ["z", "rwz", "v()", "v(rq)", "v(", "r v"])
def test_malformed_rejected(bad):
    with pytest.raises(RightsError):
        Rights.parse(bad)


def test_order_independent_equality():
    assert Rights.parse("rwl") == Rights.parse("lwr")


def test_str_is_canonical_order():
    assert str(Rights.parse("xalwr")) == "rwlxa"
    assert str(Rights.parse("lv(xw)")) == "lv(wx)"
    assert str(Rights.none()) == "-"


def test_roundtrip():
    for text in ("rwlxa", "rl", "v(rwlxa)", "rlxv(rwlxa)", "-"):
        assert str(Rights.parse(str(Rights.parse(text)))) == str(Rights.parse(text))


def test_has_v_means_reserve():
    assert Rights.parse("v(r)").has("v")
    assert not Rights.parse("rwlax").has("v")


def test_has_unknown_letter_raises():
    with pytest.raises(RightsError):
        Rights.parse("r").has("q")


def test_has_all():
    rights = Rights.parse("rwl")
    assert rights.has_all("rw")
    assert rights.has_all("")
    assert not rights.has_all("rwx")


def test_union_merges_flags():
    merged = Rights.parse("rl") | Rights.parse("wa")
    assert merged.has_all("rwla")


def test_union_merges_reserve_sets():
    merged = Rights.parse("v(rl)") | Rights.parse("v(w)")
    assert merged.reserve == frozenset("rlw")


def test_union_keeps_reserve_when_one_side_lacks_it():
    merged = Rights.parse("r") | Rights.parse("v(w)")
    assert merged.has("v")
    assert merged.reserve == frozenset("w")


def test_union_no_reserve_stays_none():
    merged = Rights.parse("r") | Rights.parse("w")
    assert merged.reserve is None


def test_reserve_rights_without_reserve_raises():
    with pytest.raises(RightsError):
        Rights.parse("rwlax").reserve_rights()


def test_of_constructor():
    rights = Rights.of("rw", reserve="rl")
    assert rights.has_all("rw")
    assert rights.reserve == frozenset("rl")


def test_full_and_none():
    assert Rights.full().has_all("rwlxa")
    assert Rights.none().is_empty


def test_programmatic_bad_letters_rejected():
    with pytest.raises(RightsError):
        Rights(flags=frozenset("rq"))
    with pytest.raises(RightsError):
        Rights(flags=frozenset(), reserve=frozenset("z"))


# -- the fast algebra against its reference, exhaustively ---------------- #

FLAG_SETS = [
    frozenset(letters)
    for size in range(len(RIGHT_LETTERS) + 1)
    for letters in combinations(RIGHT_LETTERS, size)
]
RESERVES = [None, frozenset(), frozenset("r"), frozenset("wl"), frozenset(RIGHT_LETTERS)]
EVERY_RIGHTS = [Rights(flags=flags, reserve=reserve) for flags in FLAG_SETS for reserve in RESERVES]


def test_union_matches_the_validating_constructor_on_every_pair():
    assert len(EVERY_RIGHTS) == 32 * 5
    for a, b in product(EVERY_RIGHTS, repeat=2):
        merged, want = a | b, oracle_union(a, b)
        assert type(merged) is Rights
        assert (merged.flags, merged.reserve) == (want.flags, want.reserve)
        assert merged == want and hash(merged) == hash(want) and str(merged) == str(want)


def test_union_result_is_still_frozen():
    merged = Rights.parse("r") | Rights.parse("w")
    with pytest.raises(FrozenInstanceError):
        merged.flags = frozenset("rwlxa")


def has_all_outcome(check, rights, letters):
    try:
        return check(rights, letters)
    except RightsError:
        return RightsError


def test_has_all_matches_the_per_letter_pass():
    # every string up to length 3 over the six letters, and over the six
    # plus an unknown one: an unknown letter met before a missing right
    # still raises
    for alphabet in ("rwlxav", "rwlxavq"):
        for size in range(4):
            for letters in map("".join, product(alphabet, repeat=size)):
                for rights in EVERY_RIGHTS:
                    assert has_all_outcome(Rights.has_all, rights, letters) == has_all_outcome(
                        oracle_has_all, rights, letters
                    ), (rights, letters)


def test_has_all_with_an_unknown_letter_raises():
    for letters in ("q", "rq", "qr", "rwlxaq"):
        with pytest.raises(RightsError):
            Rights.full().has_all(letters)
