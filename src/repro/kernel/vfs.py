"""Path resolution (the ``namei`` machinery) over a :class:`LocalFS`.

Splitting path walking from the filesystem proper lets the interposition
agent reuse the same walker over its own namespace, and lets the ACL layer
(``repro.core.aclfs``) resolve ``.__acl`` files without duplicating symlink
handling.  The walker reports :class:`WalkStats` so the syscall layer can
charge the cost model per component touched — directory depth is what makes
``stat``-heavy workloads (the paper's ``make`` build) expensive.  The
resolver remembers its walks until :attr:`LocalFS.generation` moves, so a
path is walked once per namespace change while its stats, and the time
charged for them, repeat on every resolution (see :class:`VFS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errno import Errno, err
from .inode import _DIR, _SYMLINK, Inode, access_allowed
from .localfs import LocalFS
from .users import Credentials

#: Maximum symlink traversals in one resolution, as on Linux.
MAX_SYMLINKS = 40

PATH_MAX = 4096

#: Most walks :meth:`VFS.resolve` remembers in one namespace generation.
MEMO_ENTRIES = 4096


def split_path(path: str) -> list[str]:
    """Split a path into components, dropping empty ones (``//`` collapses)."""
    if len(path) > PATH_MAX:
        raise err(Errno.ENAMETOOLONG, path[:32] + "...")
    return [c for c in path.split("/") if c]


def normalize(path: str) -> str:
    """Lexically normalize an *absolute* path (resolve ``.`` and ``..``).

    Purely textual — does not consult the filesystem, so it must not be used
    where symlinks matter; the resolver below is the authoritative walker.
    """
    if (
        path[:1] == "/"
        and len(path) <= PATH_MAX
        and "//" not in path
        and "/." not in path
        and (path[-1] != "/" or path == "/")
    ):
        # already normal: every component is non-empty and none is "." or ".."
        return path
    stack: list[str] = []
    for component in split_path(path):
        if component == ".":
            continue
        if component == "..":
            if stack:
                stack.pop()
            continue
        stack.append(component)
    return "/" + "/".join(stack)


def join(base: str, *parts: str) -> str:
    """Join path fragments; absolute fragments reset the base (like os.path.join)."""
    out = base
    for part in parts:
        if part.startswith("/"):
            out = part
        elif out.endswith("/"):
            out += part
        else:
            out += "/" + part
    return out


def dirname(path: str) -> str:
    """Parent directory of a normalized absolute path."""
    norm = normalize(path)
    if norm == "/":
        return "/"
    return "/" + "/".join(norm.strip("/").split("/")[:-1]) or "/"


def basename(path: str) -> str:
    """Final component of a normalized absolute path ('' for the root)."""
    norm = normalize(path)
    if norm == "/":
        return ""
    return norm.rsplit("/", 1)[-1]


@dataclass(slots=True)
class WalkStats:
    """Work performed during one resolution, for cost accounting."""

    components: int = 0
    symlinks: int = 0


@dataclass(slots=True)
class Resolution:
    """Outcome of resolving a path.

    ``inode`` is None when the final component does not exist but its parent
    does — the state create-style syscalls need.  ``parent`` is the directory
    that holds (or would hold) the final entry; ``name`` is that entry's
    name.  ``dir_path`` is the normalized absolute path of ``parent``, which
    the ACL layer uses to locate ``.__acl`` files.
    """

    inode: Inode | None
    parent: Inode
    name: str
    dir_path: str
    stats: WalkStats = field(default_factory=WalkStats)

    @property
    def exists(self) -> bool:
        return self.inode is not None

    def require(self) -> Inode:
        """Return the inode, raising ENOENT when the target is absent."""
        if self.inode is None:
            raise err(Errno.ENOENT, join(self.dir_path, self.name))
        return self.inode


class VFS:
    """Resolver bound to one :class:`LocalFS`.

    :meth:`resolve` remembers its successful walks for as long as
    :attr:`LocalFS.generation` holds, keyed by the absolute path, the
    walking credentials (when traverse checks run) and ``follow``.  The
    generation moves on every mutation a walk can observe, so within one
    generation a walk's outcome is fixed; data writes (which may CoW-clone
    an inode) leave it alone, which is why the memo stores inode *numbers*
    and a hit fetches their live incarnations.  An op's monitor and kernel
    resolutions and a build's repeated ``stat``s of one path walk once.
    At most :data:`MEMO_ENTRIES` walks are kept; a full memo starts over.
    Errors are never memoized.
    """

    def __init__(self, fs: LocalFS) -> None:
        self.fs = fs
        #: key -> (ino | None, parent ino, name, dir_path, components,
        #: symlinks) of the successful walks in generation ``_memo_gen``
        self._memo: dict[tuple, tuple] = {}
        self._memo_gen = fs.generation

    # ------------------------------------------------------------------ #
    # snapshot protocol (see repro.kernel.Snapshotable)
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> object:
        """The walker itself is stateless; delegate to the bound store.

        Machines snapshot through the VFS rather than the LocalFS so that
        an alternative mounted store only has to satisfy the protocol at
        this one seam.
        """
        return self.fs.snapshot_state()

    def restore_state(self, state: object) -> None:
        self.fs.restore_state(state)

    def resolve(
        self,
        path: str,
        cred: Credentials | None = None,
        *,
        cwd: str = "/",
        follow: bool = True,
        check_traverse: bool = True,
    ) -> Resolution:
        """Resolve ``path`` (absolute or relative to ``cwd``).

        When ``cred`` is given and ``check_traverse`` is true, each directory
        crossed must grant execute permission, as a real kernel requires.
        ``follow=False`` stops at a symlink in the final component (lstat,
        unlink, readlink semantics).  An absolute link target restarts the
        walk at the link's :attr:`~Inode.link_root`, ``/`` when it has none.

        Every call returns a fresh :class:`Resolution` whose
        :class:`WalkStats` count the components a walk touches, whether or
        not the memo (see the class docstring) spared the walk, so callers
        charge the same simulated time either way.
        """
        if not path:
            raise err(Errno.ENOENT, "empty path")
        full = path if path.startswith("/") else join(cwd, path)
        fs = self.fs
        memo = self._memo
        if self._memo_gen != fs.generation:
            memo.clear()
            self._memo_gen = fs.generation
        key = (
            full,
            # who walks matters only when traverse permission is checked
            (cred.uid, cred.gid) if check_traverse and cred is not None else None,
            follow,
        )
        hit = memo.get(key)
        if hit is not None:
            ino, parent_ino, name, dir_path, components, symlinks = hit
            inodes = fs._inodes
            return Resolution(
                None if ino is None else inodes.get(ino),
                inodes.get(parent_ino),
                name,
                dir_path,
                WalkStats(components, symlinks),
            )
        stats = WalkStats()
        node, parent, name, dir_path = self._walk(full, cred, follow, check_traverse, stats, 0)
        if len(memo) >= MEMO_ENTRIES:
            memo.clear()
        memo[key] = (
            None if node is None else node.ino,
            parent.ino,
            name,
            dir_path,
            stats.components,
            stats.symlinks,
        )
        return Resolution(node, parent, name, dir_path, stats)

    def _walk(
        self,
        path: str,
        cred: Credentials | None,
        follow: bool,
        check_traverse: bool,
        stats: WalkStats,
        depth: int,
    ) -> tuple[Inode | None, Inode, str, str]:
        # Reads the inode table and file types directly rather than through
        # LocalFS.lookup: same errors in the same order (ENOTDIR, EACCES,
        # ENOENT, EIO for a dangling entry, ELOOP), one call fewer per step.
        fs = self.fs
        inodes = fs._inodes
        root = current = fs.root
        current_path: list[str] = []
        components = split_path(path)
        if not components:
            return root, root, "", "/"
        check = check_traverse and cred is not None
        i = 0
        while i < len(components):
            component = components[i]
            is_last = i == len(components) - 1
            stats.components += 1
            if current.ftype is not _DIR:
                raise err(Errno.ENOTDIR, "/" + "/".join(current_path))
            if check and not access_allowed(current, cred.uid, cred.gid, 1):
                raise err(Errno.EACCES, "/" + "/".join(current_path))
            if component == ".":
                i += 1
                continue
            if component == "..":
                current = fs.parent_of(current)
                if current_path:
                    current_path.pop()
                i += 1
                continue
            ino = current.entries.get(component)
            if ino is None:
                if is_last:
                    return None, current, component, "/" + "/".join(current_path)
                raise err(Errno.ENOENT, component)
            child = inodes.get(ino)
            if child is None:
                raise err(Errno.EIO, f"dangling inode {ino}")
            if child.ftype is _SYMLINK and (follow or not is_last):
                stats.symlinks += 1
                if stats.symlinks > MAX_SYMLINKS:
                    raise err(Errno.ELOOP, path)
                target = child.symlink_target
                if target.startswith("/"):
                    rest = split_path(child.link_root + target) + components[i + 1 :]
                    current = root
                    current_path = []
                    components = rest
                    i = 0
                    if not components:
                        return root, root, "", "/"
                    continue
                components = components[:i] + split_path(target) + components[i + 1 :]
                continue
            if is_last:
                return child, current, component, "/" + "/".join(current_path)
            current = child
            current_path.append(component)
            i += 1
        # the path ended in "." or ".." — we landed on a directory whose
        # identity is in current/current_path rather than a final component
        if current_path:
            return (
                current,
                fs.parent_of(current),
                current_path[-1],
                "/" + "/".join(current_path[:-1]),
            )
        return current, fs.parent_of(current), "", "/"

    def realpath(self, path: str, cwd: str = "/") -> str:
        """Fully-resolved absolute path of an existing object."""
        res = self.resolve(path, cwd=cwd, check_traverse=False)
        node = res.require()
        if node.ino == self.fs.root.ino:
            return "/"
        return join(res.dir_path, res.name)
