"""Rights: the verbs of the paper's access-control lists.

An ACL entry grants a set of single-letter rights:

====  =========  ==================================================
 r    read       open a file for reading
 w    write      create, modify, or remove entries / file contents
 l    list       enumerate a directory, stat its entries
 x    execute    run a program (the Chirp ``exec`` check, §4)
 a    admin      modify the directory's ACL itself
 v    reserve    may ``mkdir`` here; the new directory receives a
                 *fresh* ACL granting the creator the parenthesized
                 rights — ``v(rwlax)`` — a variation on amplification
                 (§4, citing Jones & Wulf)
====  =========  ==================================================

Rights strings compose letters with at most one ``v(...)`` group, e.g.
``rl``, ``rwlax``, ``rlx v(rwlax)`` (the space form appears in the paper;
we accept both ``rlxv(rwlax)`` and the spaced variant when parsing a whole
ACL line).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Order in which rights letters are rendered.
RIGHT_LETTERS = "rwlxa"

READ, WRITE, LIST, EXECUTE, ADMIN, RESERVE = "r", "w", "l", "x", "a", "v"

_RIGHTS_RE = re.compile(r"^([rwlxa]*)(?:v\(([rwlxa]+)\))?([rwlxa]*)$")


class RightsError(ValueError):
    """A rights string is malformed."""


@dataclass(frozen=True)
class Rights:
    """An immutable set of rights, possibly including a reserve grant.

    ``flags`` holds the plain letters; ``reserve`` is ``None`` when the
    subject has no reserve right, else the letters the reserve grants to a
    freshly created directory (may be empty — ``v()`` is not allowed, but
    programmatic construction permits an empty grant set).
    """

    flags: frozenset[str] = frozenset()
    reserve: frozenset[str] | None = None

    def __post_init__(self) -> None:
        bad = set(self.flags) - set(RIGHT_LETTERS)
        if bad:
            raise RightsError(f"unknown rights letters: {sorted(bad)}")
        if self.reserve is not None:
            bad = set(self.reserve) - set(RIGHT_LETTERS)
            if bad:
                raise RightsError(f"unknown reserve letters: {sorted(bad)}")

    # -- construction ---------------------------------------------------- #

    @classmethod
    def parse(cls, text: str) -> "Rights":
        """Parse a rights token like ``rwlax`` or ``rlxv(rwlax)``.

        A bare ``-`` denotes no rights (handy for explicit deny-by-absence
        entries in examples).
        """
        token = text.strip().replace(" ", "")
        if token in ("", "-"):
            return cls()
        match = _RIGHTS_RE.match(token)
        if match is None:
            raise RightsError(f"bad rights string {text!r}")
        before, reserve, after = match.groups()
        flags = frozenset(before + after)
        return cls(
            flags=flags,
            reserve=frozenset(reserve) if reserve is not None else None,
        )

    @classmethod
    def of(cls, letters: str, reserve: str | None = None) -> "Rights":
        """Programmatic constructor: ``Rights.of("rwl", reserve="rwlax")``."""
        return cls(
            flags=frozenset(letters),
            reserve=frozenset(reserve) if reserve is not None else None,
        )

    #: The full non-reserve grant the paper gives a directory's owner.
    @classmethod
    def full(cls) -> "Rights":
        return cls.of(RIGHT_LETTERS)

    @classmethod
    def none(cls) -> "Rights":
        return cls()

    # -- queries ----------------------------------------------------------- #

    def has(self, letter: str) -> bool:
        """Does this set include right ``letter``? (``v`` checks reserve.)"""
        if letter == RESERVE:
            return self.reserve is not None
        if letter not in RIGHT_LETTERS:
            raise RightsError(f"unknown right {letter!r}")
        return letter in self.flags

    def has_all(self, letters: str) -> bool:
        # flags hold only known letters and never ``v``, so flags covering
        # ``letters`` is the answer; else the per-letter pass finds the
        # first unknown letter (RightsError) or missing right (False)
        if self.flags.issuperset(letters):
            return True
        return all(self.has(letter) for letter in letters)

    @property
    def is_empty(self) -> bool:
        return not self.flags and self.reserve is None

    def reserve_rights(self) -> "Rights":
        """The Rights a reserve-created directory grants its creator."""
        if self.reserve is None:
            raise RightsError("no reserve right held")
        return Rights(flags=self.reserve)

    # -- algebra ----------------------------------------------------------- #

    def union(self, other: "Rights") -> "Rights":
        """Combine two grants (multiple matching ACL entries accumulate).

        Reserve sets union as well; holding ``v(rl)`` from one entry and
        ``v(w)`` from another yields ``v(rlw)``.
        """
        if self.reserve is None and other.reserve is None:
            reserve = None
        else:
            reserve = (self.reserve or frozenset()) | (other.reserve or frozenset())
        # both operands passed validation, so their union needs none
        merged = object.__new__(Rights)
        fields = merged.__dict__
        fields["flags"] = self.flags | other.flags
        fields["reserve"] = reserve
        return merged

    def __or__(self, other: "Rights") -> "Rights":
        return self.union(other)

    # -- rendering ----------------------------------------------------------- #

    def __str__(self) -> str:
        letters = "".join(ch for ch in RIGHT_LETTERS if ch in self.flags)
        if self.reserve is not None:
            inner = "".join(ch for ch in RIGHT_LETTERS if ch in self.reserve)
            letters += f"v({inner})"
        return letters or "-"
