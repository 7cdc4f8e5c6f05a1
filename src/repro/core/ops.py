"""Declarative operation specifications shared by every entry surface.

The paper enforces *one* reference monitor across two front doors — trapped
syscalls inside an identity box (§3, Figure 4a) and Chirp RPCs named by the
authenticated principal (§4).  This module is the declarative half of that
unification: each operation is described once — its name, its handler, and
a :class:`PathArg` spec per path argument saying which rights letters it
needs, how symlinks and scope behave, and how the per-directory ACL file is
shielded.  The interceptor chain in :mod:`repro.core.pipeline` reads these
specs; neither surface re-implements a check.

``OP_PATH_SPECS`` is the single source of truth for per-operation policy:
the supervisor's syscall registry and the Chirp server's RPC registry both
draw their :class:`PathArg` tuples from it, so "open needs ``r`` or ``w``",
"unlink is a parent-scope write", "hard links are vetted, never merely
checked" are stated exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..kernel.errno import Errno, KernelError, err
from ..kernel.fdtable import O_CREAT, O_TRUNC, can_read, can_write
from ..kernel.syscalls import R_OK, W_OK, X_OK
from ..kernel.vfs import join
from .acl import ACL_FILE_NAME
from .rights import Rights, RightsError

if TYPE_CHECKING:  # pragma: no cover
    from .aclfs import AclPolicy
    from .pipeline import BoundPath, Operation


class _Required:
    """Sentinel marking an argument with no default."""

    def __repr__(self) -> str:  # pragma: no cover
        return "REQUIRED"


REQUIRED = _Required()

#: ACL-file guard modes (see :class:`repro.core.pipeline.AclFileGuard`).
GUARD_NONE = "none"
GUARD_PROTECT = "protect"  # mutating ops: EACCES, "managed via setacl"
GUARD_HIDE = "hide"  # read-only probes: the ACL file does not exist

#: Reference-monitor check modes (see ``ReferenceMonitor``).
CHECK_LETTERS = "letters"
CHECK_MKDIR = "mkdir"
CHECK_RMDIR = "rmdir"
CHECK_HARDLINK = "hardlink"
CHECK_ADMIN = "admin"
CHECK_NONE = "none"

#: Dynamic rights resolver: ``(op, path, policy) -> letters``.
LettersFn = Callable[["Operation", "BoundPath", "AclPolicy"], str]


@dataclass(frozen=True)
class PathArg:
    """Policy for one path-valued argument of an operation."""

    field: str
    letters: str | LettersFn | None = None
    follow: bool = True
    scope: str = "auto"
    guard: str = GUARD_NONE
    check: str = CHECK_LETTERS
    require_exists: bool = False
    passwd_redirect: bool = False
    default: str | None = None


@dataclass(frozen=True)
class OpSpec:
    """One registered operation: a handler plus its path policy."""

    name: str
    handler: Callable[["Operation", Any], Any]
    paths: tuple[PathArg, ...] = ()
    pre_auth: bool = False


class OpRegistry:
    """Name -> :class:`OpSpec`; registration is explicit and collision-free."""

    def __init__(self) -> None:
        self._ops: dict[str, OpSpec] = {}

    def register(self, spec: OpSpec) -> None:
        if spec.name in self._ops:
            raise ValueError(f"duplicate op {spec.name!r}")
        self._ops[spec.name] = spec

    def get(self, name: str) -> OpSpec:
        return self._ops[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def names(self) -> list[str]:
        return sorted(self._ops)


# ---------------------------------------------------------------------- #
# dynamic rights resolvers
# ---------------------------------------------------------------------- #


def open_letters(op: "Operation", path: "BoundPath", policy: "AclPolicy") -> str:
    """``open`` needs r/w per the flags; creating needs write-in-directory."""
    flags = int(op.args.get("flags", 0))
    letters = ("r" if can_read(flags) else "") + ("w" if can_write(flags) else "")
    if flags & O_CREAT and not policy.exists(path.sub):
        # creating: the governing check is write in the directory;
        # read-on-missing-file is meaningless
        letters = "w"
    return letters or "r"


def access_letters(op: "Operation", path: "BoundPath", policy: "AclPolicy") -> str:
    """``access`` maps a Unix mode mask (syscall surface) or an explicit
    letters string (Chirp surface) onto rights; F_OK needs no rights at
    all, only the existence probe the handler performs."""
    if "mode" in op.args:
        mode = int(op.args["mode"])
        letters = ""
        if mode & R_OK:
            letters += "r"
        if mode & W_OK:
            letters += "w"
        if mode & X_OK:
            letters += "x"
        return letters
    return str(op.args.get("letters", "l")) or "l"


# ---------------------------------------------------------------------- #
# fast-lane op classification (see repro.core.pipeline.ReadCache)
# ---------------------------------------------------------------------- #

#: Read-only operations whose results the fast lane may memoize.  The
#: contract is strict: the handler must be a pure function of (identity,
#: op, paths, args) and world state — true of the Chirp handlers for
#: these ops, which return plain payload dicts.  Syscall-surface handlers
#: deliver results by mutating child process state, so the supervisor
#: never installs the cache even though the interceptor is shared.
CACHEABLE_OPS = frozenset(
    {"stat", "lstat", "access", "getacl", "aclcheck", "readlink"}
)

#: Operations that (may) change namespace, content, or policy state.
#: Flowing through the pipeline, each one invalidates fast-lane cache
#: entries for the paths it touches (``open`` only when its flags can
#: create, truncate, or write).  ``pwrite``/``ftruncate`` act through a
#: descriptor: the surface stashes the descriptor's path in
#: ``op.scratch["fastlane_paths"]``, and a missing hint falls back to a
#: full flush.  ``exec`` runs arbitrary code as the caller, so it always
#: flushes everything.
MUTATING_OPS = frozenset(
    {
        "open",
        "pwrite",
        "putfile",
        "ftruncate",
        "truncate",
        "mkdir",
        "rmdir",
        "unlink",
        "rename",
        "symlink",
        "link",
        "setacl",
        "exec",
        "spawn",
        "write",
    }
)


def open_mutates(op: "Operation") -> bool:
    """Does this ``open`` have any way to change state?  Read-only opens
    (no write mode, no O_CREAT, no O_TRUNC) leave the world untouched."""
    flags = int(op.args.get("flags", 0))
    return bool(can_write(flags) or flags & (O_CREAT | O_TRUNC))


# ---------------------------------------------------------------------- #
# the shared per-operation path policy (both surfaces draw from this)
# ---------------------------------------------------------------------- #

OP_PATH_SPECS: dict[str, tuple[PathArg, ...]] = {
    "open": (
        PathArg(
            "path", letters=open_letters, guard=GUARD_PROTECT, passwd_redirect=True
        ),
    ),
    "stat": (PathArg("path", "l", guard=GUARD_HIDE, passwd_redirect=True),),
    "lstat": (
        PathArg("path", "l", follow=False, guard=GUARD_HIDE, passwd_redirect=True),
    ),
    "access": (
        PathArg(
            "path", letters=access_letters, guard=GUARD_HIDE, passwd_redirect=True
        ),
    ),
    "readlink": (PathArg("path", "l", follow=False, guard=GUARD_HIDE),),
    # whole-file transfers demand what ``open`` demands for their flags:
    # O_RDONLY needs r, O_WRONLY|O_CREAT|O_TRUNC needs w
    "getfile": (PathArg("path", "r", guard=GUARD_PROTECT),),
    "putfile": (PathArg("path", "w", guard=GUARD_PROTECT),),
    "readdir": (PathArg("path", "l"),),
    "chdir": (PathArg("path", "l"),),
    "truncate": (PathArg("path", "w", guard=GUARD_PROTECT),),
    "mkdir": (PathArg("path", check=CHECK_MKDIR),),
    "rmdir": (PathArg("path", check=CHECK_RMDIR),),
    "unlink": (PathArg("path", "w", follow=False, scope="parent", guard=GUARD_PROTECT),),
    "rename": (
        PathArg(
            "oldpath",
            "w",
            follow=False,
            scope="parent",
            guard=GUARD_PROTECT,
            require_exists=True,
        ),
        PathArg("newpath", "w", follow=False, scope="parent", guard=GUARD_PROTECT),
    ),
    # Creating the link needs only write-in-directory; any later access
    # *through* it is checked against the target directory's ACL.
    "symlink": (PathArg("linkpath", "w", follow=False, guard=GUARD_PROTECT),),
    "link": (
        PathArg("oldpath", check=CHECK_HARDLINK, guard=GUARD_PROTECT),
        PathArg("newpath", check=CHECK_NONE, guard=GUARD_PROTECT),
    ),
    "getacl": (PathArg("path", "l"),),
    "setacl": (PathArg("path", check=CHECK_ADMIN),),
    "aclcheck": (PathArg("path", check=CHECK_NONE),),
    "spawn": (PathArg("path", "x"),),
    "exec": (PathArg("path", "x"), PathArg("cwd", "l", default="/")),
}


# ---------------------------------------------------------------------- #
# shared operation helpers (used by handlers on both surfaces)
# ---------------------------------------------------------------------- #


def acl_dir_for(fs, path: str) -> str:
    """The directory whose ACL governs ``path``: itself if a directory,
    else its parent."""
    st = fs.stat(path)
    if st.is_dir:
        return path
    head, _, _tail = path.rpartition("/")
    return head or "/"


def rmdir_clearing_acl(fs, path: str) -> None:
    """Remove a directory, clearing the ACL file the box itself planted.

    Attempt first so errno semantics (ENOTDIR, ENOENT, ...) match the
    kernel's exactly; the directory's own ACL file is the one obstacle the
    enforcement layer created, so it alone may be swept before retrying.
    """
    try:
        fs.rmdir(path)
    except KernelError as exc:
        if exc.errno is not Errno.ENOTEMPTY:
            raise
        if fs.readdir(path) != [ACL_FILE_NAME]:
            raise
        fs.unlink(join(path, ACL_FILE_NAME))
        fs.rmdir(path)


def rename_clearing_acl(fs, oldpath: str, newpath: str) -> None:
    """Rename, sweeping the ACL file out of a to-be-replaced directory.

    Outside a box, renaming a directory over an empty directory succeeds;
    inside one, every directory holds the ACL file the enforcement layer
    planted, so the kernel reports ENOTEMPTY.  As with
    :func:`rmdir_clearing_acl`, that one obstacle may be cleared before
    retrying; any other content keeps the kernel's refusal.
    """
    try:
        fs.rename(oldpath, newpath)
    except KernelError as exc:
        if exc.errno is not Errno.ENOTEMPTY:
            raise
        if fs.readdir(newpath) != [ACL_FILE_NAME]:
            raise
        fs.unlink(join(newpath, ACL_FILE_NAME))
        fs.rename(oldpath, newpath)


def apply_setacl(
    policy: "AclPolicy", acl_dir: str, subject: str, rights_text: str
) -> Rights:
    """Parse and install one ACL entry; the admin check already ran."""
    try:
        rights = Rights.parse(rights_text)
    except RightsError as exc:
        raise err(Errno.EINVAL, str(exc)) from exc
    acl = policy.acl_of(acl_dir)
    if acl is None:
        raise err(Errno.EACCES, f"{acl_dir} has no ACL to administer")
    acl.set_entry(subject, rights)
    policy.write_acl(acl_dir, acl)
    return rights
