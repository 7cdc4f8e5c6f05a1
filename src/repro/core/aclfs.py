"""ACL enforcement over the simulated filesystem.

This is the reference monitor an identity box consults before delegating
any filesystem action (§3).  The rules, straight from the paper:

* Access to an object is governed by the ``.__acl`` file of the directory
  *containing* it.
* If the object is a symbolic link, the ACL of the **target's** directory
  is examined instead ("Overlooking indirect paths", §6).
* Hard links cannot be permission-checked that way (no unique containing
  directory), so creating a hard link to a file the visitor cannot read is
  refused outright.
* A directory with no ACL falls back to Unix permissions **as the user
  nobody** — protecting the supervising user's pre-existing files.
* ``mkdir`` in a directory where the visitor holds ``w`` inherits the
  parent ACL; in a directory where the visitor holds only the reserve
  right ``v(...)``, the new directory receives a fresh ACL granting the
  parenthesized rights to the creator alone (§4).
* Changing an ACL requires the ``a`` right.

The policy object performs its reads and writes **as the supervising
user** through kernel calls, so every ACL consultation is charged to the
simulated clock like any other file access.  A cache keeps repeated
checks of hot directories from dominating (disable it to measure the
difference — ``bench_ablation_acl``).  It is keyed by the governing
directory's **inode number**, because the ACL belongs to the directory,
not to the name it is reached by:

* a rename moves a directory together with its inode and its ``.__acl``,
  so it invalidates nothing;
* a symlink alias of a directory shares the directory's entry, so a
  revocation written through the alias is seen through every name;
* :meth:`AclPolicy.write_acl` is write-through (it caches the parse of
  the bytes it wrote), and a directory's entry is dropped just before an
  ``rmdir`` or a replacing rename kills it, so the cache holds live
  directories only;
* a world restore can reuse inode numbers, so the cache empties whenever
  the world moves under the owner's host task (its table's stamp is no
  longer the file system's :attr:`~repro.kernel.localfs.LocalFS.incarnation`).

Checks take the inode from the resolution they already made; path-only
callers find it with a resolution that charges nothing, so a hit costs
no simulated time.  A miss reads ``.__acl`` through the kernel, charged
as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..kernel.errno import Errno, KernelError, err
from ..kernel.inode import access_allowed
from ..kernel.users import NOBODY_UID
from ..kernel.vfs import Resolution, join, normalize
from .acl import ACL_FILE_NAME, Acl, AclError
from .rights import Rights

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.machine import Machine
    from ..kernel.process import Task


#: Cache-miss sentinel (None is a cached answer: "this directory has no ACL").
_MISSING = object()


def _parse(data: bytes) -> Acl:
    """``.__acl`` bytes as an ACL; a malformed file denies everyone."""
    try:
        return Acl.parse(data.decode("utf-8", errors="replace"))
    except AclError:
        return Acl()


@dataclass
class AccessDecision:
    """Outcome of one policy check (kept for audit records).

    ``rights`` is what the ACL of the ``governing`` directory grants, or
    None when no ACL governs and the Unix fallback decided.  The audit
    text, :attr:`reason`, is formatted only when something reads it.
    """

    allowed: bool
    identity: str
    path: str
    letters: str
    governing: str = ""
    rights: Rights | None = None

    @property
    def reason(self) -> str:
        if self.rights is None:
            return "unix-fallback-as-nobody"
        return f"acl({self.governing})={self.rights}"


class AclPolicy:
    """The identity box's reference monitor for one supervising user."""

    def __init__(
        self,
        machine: "Machine",
        owner_task: "Task",
        *,
        cache_enabled: bool = True,
    ) -> None:
        self.machine = machine
        self.owner_task = owner_task
        self.cache_enabled = cache_enabled
        #: governing directory's inode number -> its ACL (None: no file)
        self._cache: dict[int, Acl | None] = {}
        #: symlinks followed by every resolution this policy has made; the
        #: reference monitor compares it across an op to tell whether the
        #: op reached anything through an alias
        self.symlinks_walked = 0

    # ------------------------------------------------------------------ #
    # ACL file access (as the supervising user, charged to the clock)
    # ------------------------------------------------------------------ #

    def acl_of(self, dir_path: str) -> Acl | None:
        """The ACL governing ``dir_path``, or None if the directory has none.

        A *corrupt* ACL file fails closed: it parses to an empty ACL that
        denies everyone, rather than crashing the supervisor or — worse —
        falling back to the more permissive nobody check.
        """
        dir_path = normalize(dir_path)
        return self._acl_at(self._dir_ino(dir_path), dir_path)

    def _acl_at(self, ino: int | None, dir_path: str) -> Acl | None:
        """The ACL of directory ``ino``, read through ``dir_path`` on a miss.

        ``ino`` is None when the caller has no live directory to key by
        (or the cache is off): the read then reports the kernel's answer
        and nothing is cached.
        """
        cache = self._live_cache()
        if ino is None:
            cache = None
        if cache is not None:
            acl = cache.get(ino, _MISSING)
            if acl is not _MISSING:
                return acl
        try:
            acl = _parse(
                self.machine.read_file(self.owner_task, join(dir_path, ACL_FILE_NAME))
            )
        except KernelError as exc:
            if exc.errno is not Errno.ENOENT:
                raise
            acl = None
        if cache is not None:
            cache[ino] = acl
        return acl

    def write_acl(self, dir_path: str, acl: Acl) -> None:
        """Store ``acl`` as the directory's ``.__acl`` file (owner-privileged).

        Write-through: the cache then holds the parse of the bytes written,
        exactly what a reread would return.
        """
        dir_path = normalize(dir_path)
        data = acl.render().encode()
        ino = self._dir_ino(dir_path)  # None when the cache is off
        cache = self._live_cache()
        if ino is not None:
            cache.pop(ino, None)  # a failed write leaves no guess
        self.machine.write_file(self.owner_task, join(dir_path, ACL_FILE_NAME), data)
        if ino is not None:
            self._cache[ino] = _parse(data)

    def invalidate(self, dir_path: str) -> None:
        """Drop the cached ACL of the directory ``dir_path`` names.

        Called before an ``rmdir`` or a replacing rename kills the
        directory, and after its ``.__acl`` changed behind the policy.
        """
        ino = self._dir_ino(normalize(dir_path))
        if ino is not None:
            self._cache.pop(ino, None)

    def invalidate_all(self) -> None:
        self._cache.clear()

    def _live_cache(self) -> dict[int, Acl | None] | None:
        """The cache (None when it is off), emptied first if the world was
        restored under it; every ``.__acl`` read and write calls it first."""
        if self.owner_task.fdtable.incarnation is not self.machine.fs.incarnation:
            # a restore rewinds inode allocation, so the same number may
            # now name a different directory; the owner's descriptor table
            # is stamped with the old world, so rereads need a fresh one
            self._cache.clear()
            self.owner_task = self.machine.host_task(
                self.owner_task.cred, cwd=self.owner_task.cwd
            )
        return self._cache if self.cache_enabled else None

    def _dir_ino(self, dir_path: str) -> int | None:
        """Inode number of the directory at ``dir_path``, found without
        charging the clock; None when the cache is off or the path names
        no directory (the uncached read then reports why)."""
        if not self.cache_enabled:
            return None
        try:
            node = self._walk(dir_path, "/", True).inode
        except KernelError:
            return None
        return node.ino if node is not None and node.is_dir else None

    # ------------------------------------------------------------------ #
    # rights evaluation
    # ------------------------------------------------------------------ #

    def exists(self, path: str, *, cwd: str = "/", follow: bool = True) -> bool:
        """Whether ``path`` resolves to an existing object (owner's view)."""
        try:
            return self._resolve(path, cwd, follow).exists
        except KernelError:
            return False

    def require_exists(
        self, path: str, *, cwd: str = "/", follow: bool = True
    ) -> Resolution:
        """Resolve ``path`` with kernel errno semantics: intermediate
        failures (ENOTDIR, ELOOP, missing directories) propagate as
        themselves; only a missing final component is ENOENT."""
        res = self._resolve(path, cwd, follow)
        res.require()
        return res

    def _resolve(self, path: str, cwd: str, follow: bool) -> Resolution:
        """Resolve as the supervising user (who implements every action)."""
        res = self._walk(path, cwd, follow)
        self.machine.clock.advance(
            self.machine.costs.path_component_ns
            * (res.stats.components + res.stats.symlinks),
            "vfs",
        )
        return res

    def _walk(self, path: str, cwd: str, follow: bool) -> Resolution:
        """:meth:`_resolve` without the charge (cache keys only)."""
        res = self.machine.vfs.resolve(
            path, self.owner_task.cred, cwd=cwd, follow=follow
        )
        self.symlinks_walked += res.stats.symlinks
        return res

    def _unix_fallback(
        self,
        res: Resolution,
        letters: str,
        own_scope: bool,
        entry_mutation: bool = False,
    ) -> bool:
        """No ACL present: check Unix bits as the user ``nobody`` (§3).

        ``own_scope`` mirrors the rule in :meth:`check`: when true the object
        being governed is the resolved directory itself, so its own mode
        bits are consulted; otherwise the containing directory's are.

        ``entry_mutation`` marks unlink/rmdir/rename of an *existing*
        entry.  Those get sticky-bit semantics: nobody may not remove or
        rename entries it does not own, even in a world-writable directory
        — otherwise a visitor could drag foreign directories (other boxes'
        homes!) into its own namespace through ``/tmp``.
        """
        if entry_mutation and "w" in letters:
            # nobody owns no inodes, so this denies every entry mutation in
            # un-ACL'd space, exactly like files in a real sticky /tmp
            return res.exists and res.inode.uid == NOBODY_UID
        want_on_target = 0  # bits checked on the resolved object
        want_on_parent = 0  # bits checked on the containing directory
        for letter in letters:
            if letter == "r":
                want_on_target |= 4
            elif letter == "x":
                want_on_target |= 1
            elif letter == "w":
                if own_scope:
                    want_on_target |= 2  # write *in* the target directory
                elif res.exists and res.inode.is_file:
                    want_on_target |= 2
                else:
                    want_on_parent |= 2  # create/remove an entry
            elif letter == "l":
                if own_scope:
                    want_on_target |= 4  # list the target directory itself
                else:
                    want_on_parent |= 4
            elif letter in ("a", "v"):
                return False  # nobody never administers or reserves
        if want_on_target:
            if not res.exists:
                return False
            if not access_allowed(res.inode, NOBODY_UID, NOBODY_UID, want_on_target):
                return False
        if want_on_parent:
            if not access_allowed(res.parent, NOBODY_UID, NOBODY_UID, want_on_parent):
                return False
        return True

    def check(
        self,
        identity: str,
        path: str,
        letters: str,
        *,
        cwd: str = "/",
        follow: bool = True,
        scope: str = "auto",
    ) -> AccessDecision:
        """Decide whether ``identity`` may perform ``letters`` on ``path``.

        The governing ACL is the one in the directory *containing* the
        object (§3); when the object is itself a directory and ``scope``
        is ``"auto"``, its own ACL governs (listing it, working in it).
        ``scope="parent"`` forces the containing directory even for
        directories — the right rule for unlink/rmdir/rename, which
        mutate the parent's namespace.

        Never raises on a policy denial; returns a decision the caller can
        turn into EACCES (and feed to the audit log).  Kernel-level
        resolution errors (ENOENT on an intermediate directory, ELOOP)
        propagate as :class:`KernelError` since the underlying syscall
        would fail anyway.
        """
        res = self._resolve(path, cwd, follow)
        own_scope = scope == "auto" and res.exists and res.inode.is_dir
        entry_mutation = scope == "parent" and res.exists
        if own_scope:
            # a directory's own ACL governs listing it and working in it
            governing = join(res.dir_path, res.name) if res.name else "/"
            acl = self._acl_at(res.inode.ino, governing)
        else:
            governing = res.dir_path
            acl = self._acl_at(res.parent.ino, governing)
        if acl is None:
            ok = self._unix_fallback(res, letters, own_scope, entry_mutation)
            return AccessDecision(ok, identity, path, letters)
        rights = acl.rights_for(identity)
        return AccessDecision(
            rights.has_all(letters), identity, path, letters, governing, rights
        )

    def check_remove_dir(
        self, identity: str, path: str, *, cwd: str = "/"
    ) -> AccessDecision:
        """Authorize ``rmdir``: write in the parent, *or* the reserve right
        in the parent plus write in the directory's own ACL.

        The second arm covers the Figure-3 cleanup: a visitor who created
        a directory through the reserve right holds full rights inside it
        but only ``v`` in the parent, yet must be able to remove what they
        created.  Without ``v`` in the parent, write inside a directory
        (say, one the owner shared) is no right to delete the directory.
        """
        parent_decision = self.check(
            identity, path, "w", cwd=cwd, follow=False, scope="parent"
        )
        if parent_decision.allowed:
            return parent_decision
        reserve = self.check(identity, path, "v", cwd=cwd, follow=False, scope="parent")
        if not reserve.allowed:
            return parent_decision
        own_decision = self.check(identity, path, "w", cwd=cwd, scope="auto")
        return own_decision if own_decision.allowed else parent_decision

    def require(
        self,
        identity: str,
        path: str,
        letters: str,
        *,
        cwd: str = "/",
        follow: bool = True,
        scope: str = "auto",
    ) -> AccessDecision:
        """Like :meth:`check` but raises EACCES when denied."""
        decision = self.check(
            identity, path, letters, cwd=cwd, follow=follow, scope=scope
        )
        if not decision.allowed:
            raise err(Errno.EACCES, f"{identity} lacks {letters!r} on {path}")
        return decision

    # ------------------------------------------------------------------ #
    # mkdir: inheritance and the reserve right
    # ------------------------------------------------------------------ #

    def plan_mkdir(
        self, identity: str, path: str, *, cwd: str = "/"
    ) -> tuple[Resolution, Acl]:
        """Authorize a mkdir and compute the new directory's ACL.

        Returns the resolution of the new path plus the ACL to install:
        a copy of the parent's ACL when the visitor holds ``w``, or a fresh
        reserve-amplified ACL when the visitor holds only ``v`` (§4).
        """
        res = self._resolve(path, cwd, follow=True)
        if res.exists:
            raise err(Errno.EEXIST, path)
        acl = self._acl_at(res.parent.ino, res.dir_path)
        if acl is None:
            if self._unix_fallback(res, "w", own_scope=False):
                # un-ACL'd world-writable directory (e.g. /tmp): the new
                # directory starts a fresh ACL domain owned by the creator
                return res, Acl.for_owner(identity)
            raise err(Errno.EACCES, f"{identity} cannot mkdir in {res.dir_path}")
        rights = acl.rights_for(identity)
        if rights.has("w"):
            return res, acl.copy()
        if rights.has("v"):
            return res, self._reserve_acl(identity, rights)
        raise err(Errno.EACCES, f"{identity} holds neither w nor v in {res.dir_path}")

    @staticmethod
    def _reserve_acl(identity: str, rights: Rights) -> Acl:
        fresh = Acl()
        fresh.set_entry(identity, rights.reserve_rights())
        return fresh

    def apply_mkdir(self, new_dir_path: str, acl: Acl) -> None:
        """Install the planned ACL after the directory has been created."""
        self.write_acl(new_dir_path, acl)

    # ------------------------------------------------------------------ #
    # ACL administration and hard links
    # ------------------------------------------------------------------ #

    def require_admin(self, identity: str, dir_path: str) -> None:
        """The ``a`` right gates ACL modification (§3)."""
        acl = self.acl_of(dir_path)
        if acl is None or not acl.rights_for(identity).has("a"):
            raise err(Errno.EACCES, f"{identity} lacks 'a' on {dir_path}")

    def check_hard_link(
        self, identity: str, oldpath: str, newpath: str, *, cwd: str = "/"
    ) -> None:
        """Refuse hard links the visitor could use to dodge ACL checks.

        A hard link is an alias governed by its *own* directory's ACL, so
        linking a file into a directory where the visitor holds broad
        rights would amplify whatever the visitor held on the target
        (read-only would become writable).  Safe rule: the visitor must
        already hold read *and write* on the target — aliasing then grants
        nothing they could not do by copying — plus write in the
        destination directory.
        """
        self.require(identity, oldpath, "rw", cwd=cwd, follow=False)
        dst = self._resolve(newpath, cwd, follow=False)
        if dst.exists:
            raise err(Errno.EEXIST, newpath)
        dst_acl = self._acl_at(dst.parent.ino, dst.dir_path)
        if dst_acl is None:
            if not self._unix_fallback(dst, "w", own_scope=False):
                raise err(Errno.EACCES, f"{identity} cannot link into {dst.dir_path}")
            return
        if not dst_acl.rights_for(identity).has("w"):
            raise err(Errno.EACCES, f"{identity} lacks 'w' in {dst.dir_path}")
