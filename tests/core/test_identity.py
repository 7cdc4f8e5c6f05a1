"""Identity strings, principals, and wildcard matching."""

import sys

import pytest

from repro.core.acl import AclEntry, AclError
from repro.core.rights import Rights
from repro.core.identity import (
    IdentityError,
    Principal,
    identity_matches,
    is_pattern,
    mangle_for_path,
    validate_identity,
)


# -- validation ------------------------------------------------------------ #


@pytest.mark.parametrize(
    "good",
    [
        "Freddy",
        "/O=UnivNowhere/CN=Fred",
        "globus:/O=UnivNowhere/CN=Fred",
        "kerberos:fred@nowhere.edu",
        "Anonymous429",
        "MyFriend",
    ],
)
def test_paper_examples_are_valid(good):
    assert validate_identity(good) == good


@pytest.mark.parametrize("bad", ["", "has space", "tab\there", "nl\n", "a b"])
def test_whitespace_and_empty_rejected(bad):
    with pytest.raises(IdentityError):
        validate_identity(bad)


def test_whitespace_check_is_exactly_isspace():
    # validation splits instead of testing each character: the two must
    # agree on every code point
    for code in range(sys.maxunicode + 1):
        text = f"a{chr(code)}b"
        assert (text.split() != [text]) == chr(code).isspace(), hex(code)


@pytest.mark.parametrize("space", [" ", "\x85", "\x1c", "\xa0", "\u2028", "\u3000"])
def test_unicode_whitespace_rejected_before_printability(space):
    # several of these are also unprintable; the whitespace error wins
    with pytest.raises(IdentityError, match="whitespace"):
        validate_identity(f"a{space}b")
    with pytest.raises(IdentityError, match="whitespace"):
        validate_identity(space)
    with pytest.raises(AclError):
        AclEntry(f"a{space}b", Rights.full())


# -- matching ------------------------------------------------------------ #


def test_exact_match():
    assert identity_matches("/O=X/CN=Fred", "/O=X/CN=Fred")
    assert not identity_matches("/O=X/CN=Fred", "/O=X/CN=Freda")


def test_paper_wildcard_example():
    # "/O=UnivNowhere/* ... allows any user at /O=UnivNowhere/"
    assert identity_matches("/O=UnivNowhere/*", "/O=UnivNowhere/CN=Fred")
    assert not identity_matches("/O=UnivNowhere/*", "/O=NotreDame/CN=Heidi")


def test_hostname_wildcard_example():
    assert identity_matches("hostname:*.nowhere.edu", "hostname:laptop.cs.nowhere.edu")
    assert not identity_matches("hostname:*.nowhere.edu", "hostname:evil.example.com")


def test_star_crosses_slashes():
    assert identity_matches("globus:*", "globus:/O=A/CN=B")


def test_question_mark_single_char():
    assert identity_matches("grid?", "grid7")
    assert not identity_matches("grid?", "grid77")


def test_match_is_anchored():
    assert not identity_matches("Fred", "AFredB")
    assert not identity_matches("*.edu", "x.edu.com")


def test_match_is_case_sensitive():
    assert not identity_matches("/O=X/CN=Fred", "/o=x/cn=fred")


def test_regex_metacharacters_are_literal():
    assert identity_matches("a.b", "a.b")
    assert not identity_matches("a.b", "axb")  # '.' is NOT a regex dot
    assert identity_matches("a+b", "a+b")
    assert not identity_matches("a+b", "aab")


def test_is_pattern():
    assert is_pattern("/O=X/*")
    assert is_pattern("grid?")
    assert not is_pattern("/O=X/CN=Fred")


# -- principals ------------------------------------------------------------ #


def test_principal_roundtrip():
    p = Principal.parse("globus:/O=UnivNowhere/CN=Fred")
    assert p.method == "globus"
    assert p.name == "/O=UnivNowhere/CN=Fred"
    assert str(p) == "globus:/O=UnivNowhere/CN=Fred"


def test_principal_name_may_contain_colons():
    p = Principal.parse("kerberos:fred@nowhere.edu")
    assert p.method == "kerberos"
    assert p.name == "fred@nowhere.edu"


@pytest.mark.parametrize("bad", ["nomethod", ":noname", "method:", ""])
def test_bad_principal_strings(bad):
    with pytest.raises(IdentityError):
        Principal.parse(bad)


def test_principal_matches_patterns():
    p = Principal("globus", "/O=UnivNowhere/CN=Fred")
    assert p.matches("globus:/O=UnivNowhere/*")
    assert not p.matches("kerberos:*")


# -- path mangling ------------------------------------------------------------ #


def test_mangle_is_single_component():
    mangled = mangle_for_path("globus:/O=UnivNowhere/CN=Fred")
    assert "/" not in mangled
    assert ":" not in mangled


def test_mangle_injective_for_lookalikes():
    # '/' and ':' must not collapse to the same character
    assert mangle_for_path("a/b") != mangle_for_path("a:b")
    assert mangle_for_path("a_b") != mangle_for_path("a/b")


def test_mangle_plain_names_stay_readable():
    assert mangle_for_path("Freddy") == "Freddy"
