"""Access control lists: per-directory subject/rights tables.

An ACL is an ordered list of ``(subject, rights)`` entries stored in a file
named ``.__acl`` inside the directory it governs (§3; the paper prints the
name as ". acl").  Subjects are identity strings, possibly with wildcards::

    /O=UnivNowhere/CN=Fred  rwlax
    /O=UnivNowhere/*        rl

An identity's effective rights are the union over all matching entries —
Fred above holds ``rwlax`` (both lines match him).  The rights of an
identity nobody listed is empty, which is what denies the visiting user
access to the supervising user's files in Figure 2.

Evaluation runs on a compiled form of the entries, built on first use and
dropped by every ``set_entry``/``remove_entry``.  Its tables are keyed by
subject, one entry each, so they never grow without bound.  The compiled
form also memoizes what it has answered, and each memo dies with it:

* the rights of identities already asked about, at most
  :data:`RIGHTS_MEMO_ENTRIES` of them (the memo starts over when full).
  An identity is validated on every miss, and a string that fails is
  never stored, so it fails on every call;
* the rendered ``.__acl`` text, once an evaluation has compiled the ACL
  (an ACL that is only written out is rendered, not compiled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .identity import compile_pattern, identity_matches, is_pattern, validate_identity
from .rights import Rights, RightsError

#: Name of the per-directory ACL file.
ACL_FILE_NAME = ".__acl"


class AclError(ValueError):
    """An ACL file or entry is malformed."""


@dataclass(frozen=True)
class AclEntry:
    """One line of an ACL: a subject pattern and its rights."""

    subject: str
    rights: Rights

    def __post_init__(self) -> None:
        # Wildcard characters are legal in subjects; whitespace is not.
        if not self.subject or self.subject.split() != [self.subject]:
            raise AclError(f"bad ACL subject {self.subject!r}")

    def matches(self, identity: str) -> bool:
        return identity_matches(self.subject, identity)

    def render(self) -> str:
        return f"{self.subject} {self.rights}"


#: Shared result for identities no entry covers (Rights is immutable).
_NO_RIGHTS = Rights.none()

#: Bound on the identities one compiled ACL remembers the rights of.  A
#: directory's ACL is asked about by every principal that touches it, so
#: the memo starts over when full rather than grow with the principals.
RIGHTS_MEMO_ENTRIES = 16


class _Compiled:
    """An ACL compiled for evaluation, with what it has answered.

    ``exact`` maps each exact subject to the union of its rights, and
    ``wildcards`` holds ``(regex match, rights)`` per wildcard subject.
    ``memo`` maps validated identities to their rights and ``text`` is
    the rendered file text, once asked for.
    """

    __slots__ = ("exact", "wildcards", "memo", "text")

    def __init__(self, entries: list[AclEntry]) -> None:
        exact: dict[str, Rights] = {}
        wildcards: list[tuple[Callable, Rights]] = []
        for entry in entries:
            if is_pattern(entry.subject):
                wildcards.append((compile_pattern(entry.subject).match, entry.rights))
            elif entry.subject in exact:
                exact[entry.subject] = exact[entry.subject] | entry.rights
            else:
                exact[entry.subject] = entry.rights
        self.exact = exact
        self.wildcards = wildcards
        self.memo: dict[str, Rights] = {}
        self.text: str | None = None


@dataclass
class Acl:
    """An ordered collection of ACL entries."""

    entries: list[AclEntry] = field(default_factory=list)
    #: ``entries`` compiled, built on first use and dropped by every
    #: mutation, memos included.  Its tables are keyed by subject; only
    #: its bounded rights memo is keyed by the identities asked about.
    _compiled: _Compiled | None = field(default=None, init=False, repr=False, compare=False)

    # -- evaluation ------------------------------------------------------ #

    def _compile(self) -> _Compiled:
        self._compiled = _Compiled(self.entries)
        return self._compiled

    def rights_for(self, identity: str) -> Rights:
        """Effective rights of ``identity``: union of matching entries."""
        compiled = self._compiled or self._compile()
        memo = compiled.memo
        effective = memo.get(identity)
        if effective is not None:
            return effective
        validate_identity(identity)  # a failing string is never stored
        effective = compiled.exact.get(identity, _NO_RIGHTS)
        for match, rights in compiled.wildcards:
            if match(identity) is not None:
                effective = effective | rights
        if len(memo) >= RIGHTS_MEMO_ENTRIES:
            memo.clear()
        memo[identity] = effective
        return effective

    def allows(self, identity: str, letters: str) -> bool:
        """Does ``identity`` hold every right in ``letters`` here?"""
        return self.rights_for(identity).has_all(letters)

    def subjects(self) -> list[str]:
        return [entry.subject for entry in self.entries]

    # -- mutation ------------------------------------------------------ #

    def set_entry(self, subject: str, rights: Rights) -> None:
        """Add or replace the entry for ``subject``.

        Empty rights remove the entry — mirroring the Chirp ``setacl``
        convention where granting ``-`` deletes a subject.
        """
        self.entries = [e for e in self.entries if e.subject != subject]
        if not rights.is_empty:
            self.entries.append(AclEntry(subject=subject, rights=rights))
        self._compiled = None

    def remove_entry(self, subject: str) -> None:
        self.set_entry(subject, Rights.none())

    # -- serialization ------------------------------------------------------ #

    def render(self) -> str:
        """Serialize to ``.__acl`` file text (one entry per line)."""
        compiled = self._compiled
        if compiled is not None and compiled.text is not None:
            return compiled.text
        text = "".join(entry.render() + "\n" for entry in self.entries)
        if compiled is not None:  # an ACL only written out is not compiled
            compiled.text = text
        return text

    @classmethod
    def parse(cls, text: str) -> "Acl":
        """Parse ``.__acl`` file text.

        Blank lines and ``#`` comments are tolerated (real config files
        accumulate them); a malformed line raises :class:`AclError` rather
        than being skipped — silently dropping an ACL line could widen or
        narrow access.
        """
        entries: list[AclEntry] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise AclError(f"line {lineno}: expected 'subject rights', got {raw!r}")
            subject, rights_text = parts
            try:
                rights = Rights.parse(rights_text)
            except RightsError as exc:
                raise AclError(f"line {lineno}: {exc}") from exc
            entries.append(AclEntry(subject=subject, rights=rights))
        return cls(entries=entries)

    @classmethod
    def for_owner(cls, identity: str) -> "Acl":
        """The fresh-home-directory ACL: full rights for one identity."""
        return cls(entries=[AclEntry(subject=identity, rights=Rights.full())])

    def copy(self) -> "Acl":
        """Independent copy (inheritance must not alias the parent's list)."""
        return Acl(entries=list(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
