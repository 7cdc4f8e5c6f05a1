"""Differential property test: the resolver's walk and ``normalize``.

``tests.helpers.oracle_walk`` resolves one ``LocalFS.lookup`` per
component, as the resolver used to.  On generated trees (absolute and
relative symlinks including loops, links rooted at ``/a`` whose absolute
targets resolve below it, ``.`` and ``..``, missing intermediates, files
used as directories, directories without ``x``)
the resolver must return the same ``(inode, parent, name, dir_path)``
with the same walk statistics, or fail with the same errno and message.
``normalize`` is checked exhaustively on short strings.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.kernel.errno import KernelError
from repro.kernel.localfs import LocalFS
from repro.kernel.users import Credentials
from repro.kernel.vfs import PATH_MAX, VFS, join, normalize
from tests.helpers import oracle_normalize, oracle_walk

#: directories every tree has (with drawn modes and owners), then extras
SKELETON = ("/a", "/b", "/a/b")
PARENTS = ("/",) + SKELETON + ("/a/l", "/f")
NAMES = ("l", "m", "f", "c")
TARGETS = (
    "/", "/a", "/a/b", "/b/l", "a", "b", "l", "m", "./l", "..", ".", "../a",
    "/a/l", "b/../a", "/missing/x", "a/", "//b",
)
MODES = (0o755, 0o700, 0o711, 0o644, 0o000)
owners = st.sampled_from((0, 1, 2))

skeletons = st.lists(
    st.tuples(st.sampled_from(MODES), owners), min_size=len(SKELETON), max_size=len(SKELETON)
)
entries = st.tuples(
    st.sampled_from(PARENTS),
    st.sampled_from(NAMES),
    st.sampled_from(("dir", "file", "symlink", "symlink", "rooted")),
    st.sampled_from(MODES),
    owners,
    st.sampled_from(TARGETS),
)
trees = st.builds(
    lambda skeleton, extras: [
        (path.rsplit("/", 1)[0] or "/", path.rsplit("/", 1)[1], "dir", mode, owner, "")
        for path, (mode, owner) in zip(SKELETON, skeleton)
    ]
    + extras,
    skeletons,
    st.lists(entries, max_size=10),
)
#: relative spellings; the resolver rejects "" before walking
paths = (
    st.lists(st.sampled_from(("a", "b") + NAMES + (".", "..", "", "x")), min_size=1, max_size=6)
    .map("/".join)
    .filter(bool)
)
creds = st.sampled_from(
    (None, Credentials(0, 0, "root"), Credentials(1, 1, "u1"), Credentials(2, 2, "u2"))
)


def build(tree) -> LocalFS:
    fs = LocalFS()
    for parent_path, name, kind, mode, owner, target in tree:
        directory = fs.root
        try:
            for component in parent_path.split("/"):
                if component:
                    directory = fs.lookup(directory, component)
            if kind == "dir":
                fs.mkdir(directory, name, owner, owner, mode=mode)
            elif kind == "file":
                fs.create_file(directory, name, owner, owner, mode=mode)
            else:
                root = "/a" if kind == "rooted" else ""
                fs.symlink(directory, name, target, owner, owner, root=root)
        except KernelError:
            pass  # missing or non-directory parent, or the name is taken
    return fs


def resolved(fs, path, cred, **kwargs):
    res = VFS(fs).resolve(path, cred, **kwargs)
    return res.inode, res.parent, res.name, res.dir_path, res.stats


def outcome(fn):
    try:
        node, parent, name, dir_path, stats = fn()
    except KernelError as exc:
        return ("error", exc.errno, str(exc))
    ino = None if node is None else node.ino
    return (ino, parent.ino, name, dir_path, stats.components, stats.symlinks)


@settings(max_examples=300, deadline=None)
@given(
    trees,
    paths,
    st.sampled_from(("/", "/a", "/a/b")),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    creds,
)
def test_walk_agrees_with_the_lookup_oracle(tree, path, cwd, absolute, follow, check, cred):
    fs = build(tree)
    if absolute:
        path = "/" + path
    full = path if path.startswith("/") else join(cwd, path)
    expected = outcome(lambda: oracle_walk(fs, full, cred, follow=follow, check_traverse=check))
    got = outcome(
        lambda: resolved(fs, path, cred, cwd=cwd, follow=follow, check_traverse=check)
    )
    assert got == expected


def test_walk_errors_match_the_oracle():
    # one pinned case per errno the walk raises
    fs = build(
        [
            ("/", "a", "dir", 0o755, 1, ""),
            ("/", "f", "file", 0o644, 1, ""),
            ("/", "b", "dir", 0o700, 2, ""),
            ("/a", "l", "symlink", 0, 1, "l"),
        ]
    )
    fs.root.entries["g"] = 999  # a dangling entry, which only corruption makes
    cred = Credentials(1, 1, "u1")
    for path, errno_name in (
        ("/f/a", "ENOTDIR"),
        ("/b/a", "EACCES"),
        ("/x/a", "ENOENT"),
        ("/g", "EIO"),
        ("/a/l", "ELOOP"),
    ):
        got = outcome(lambda: oracle_walk(fs, path, cred))
        assert got[0] == "error" and got[1].name == errno_name
        assert outcome(lambda: resolved(fs, path, cred)) == got


def _normalized(fn, path):
    try:
        return fn(path)
    except KernelError as exc:
        return ("error", exc.errno)


def test_normalize_exhaustive_on_short_strings():
    checked = 0
    for length in range(1, 8):
        for chars in product("/a.", repeat=length):
            path = "".join(chars)
            assert normalize(path) == oracle_normalize(path), path
            checked += 1
    assert checked == 3279


def test_normalize_at_the_length_limit():
    for path in (
        "/" + "a" * (PATH_MAX - 1),
        "/" + "a" * PATH_MAX,
        "/a/" + "b" * (PATH_MAX - 4) + "/",
        "/./" + "a" * PATH_MAX,
    ):
        assert _normalized(normalize, path) == _normalized(oracle_normalize, path)
