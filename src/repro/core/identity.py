"""High-level identities and principal names.

The central idea of the paper: a subject is named by a *free-form text
string* — ``/O=UnivNowhere/CN=Fred``, ``MyFriend``, ``Anonymous429`` — with
no relationship to the local account database (§3).  In a distributed
setting the string is a *principal name* that records how the subject
authenticated: ``globus:/O=UnivNowhere/CN=Fred``,
``kerberos:fred@nowhere.edu``, ``hostname:laptop.cs.nowhere.edu`` (§4).

Identity strings may contain wildcards when used as ACL *subjects*:
``/O=UnivNowhere/*`` matches every holder of a UnivNowhere certificate, and
``hostname:*.nowhere.edu`` matches every host in that domain.  Only ``*``
(any run of characters) and ``?`` (any single character) are special;
matching is anchored at both ends.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

#: Authentication methods Chirp negotiates, in this reproduction.
KNOWN_METHODS = ("globus", "kerberos", "hostname", "unix")


class IdentityError(ValueError):
    """An identity or principal string is malformed."""


def validate_identity(identity: str) -> str:
    """Check an identity string is usable; returns it unchanged.

    Identities are nearly free-form ("absolutely any name", §3), but they
    must be printable, non-empty, and free of newlines and whitespace so
    they can live as one token per line in ``.__acl`` files.
    """
    if not identity:
        raise IdentityError("identity must be non-empty")
    # str.split() breaks at exactly the characters str.isspace() matches
    if identity.split() != [identity]:
        raise IdentityError(f"identity may not contain whitespace: {identity!r}")
    if not identity.isprintable():
        raise IdentityError(f"identity must be printable: {identity!r}")
    return identity


@lru_cache(maxsize=4096)
def compile_pattern(pattern: str) -> re.Pattern[str]:
    """The anchored regex a wildcard subject matches identities with."""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$")


def identity_matches(pattern: str, identity: str) -> bool:
    """Does ACL subject ``pattern`` cover ``identity``?

    Exact strings match themselves; ``*``/``?`` glob.  Matching is
    case-sensitive — ``/O=UnivNowhere/CN=Fred`` and
    ``/o=univnowhere/cn=fred`` are different principals, as with real DNs.
    """
    if "*" not in pattern and "?" not in pattern:
        return pattern == identity
    return compile_pattern(pattern).match(identity) is not None


def is_pattern(subject: str) -> bool:
    """Whether an ACL subject uses wildcards (matters for reserve rights)."""
    return "*" in subject or "?" in subject


@dataclass(frozen=True)
class Principal:
    """An authenticated identity: method + proven name.

    ``str(Principal("globus", "/O=UnivNowhere/CN=Fred"))`` is the canonical
    form used in ACLs and process labels.
    """

    method: str
    name: str

    def __post_init__(self) -> None:
        if not self.method or ":" in self.method:
            raise IdentityError(f"bad method {self.method!r}")
        validate_identity(self.name)

    def __str__(self) -> str:
        return f"{self.method}:{self.name}"

    @classmethod
    def parse(cls, text: str) -> "Principal":
        """Parse ``method:name``; raises :class:`IdentityError` if malformed."""
        method, sep, name = text.partition(":")
        if not sep or not method or not name:
            raise IdentityError(f"principal must look like method:name, got {text!r}")
        return cls(method=method, name=name)

    def matches(self, pattern: str) -> bool:
        """Does an ACL subject pattern cover this principal?"""
        return identity_matches(pattern, str(self))


def mangle_for_path(identity: str) -> str:
    """Turn an identity into a safe single path component.

    Used to name per-visitor home directories
    (``/tmp/boxes/globus_O=UnivNowhere_CN=Fred``).  The result is unique
    per distinct identity: characters unsafe in a path component are
    percent-encoded.
    """
    out = []
    for ch in identity:
        if ch.isalnum() or ch in "=.@+-":
            out.append(ch)
        else:
            out.append(f"%{ord(ch):02x}")
    return "".join(out)
