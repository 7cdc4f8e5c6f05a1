"""Property test: the read cache's path index against a brute-force model.

Random interleavings of cached reads, mutations (plain paths, ``setacl``
governing directories, descriptor hints, exec), LRU evictions at a small
capacity and full flushes run against a :class:`ReadCache` and against a
model that applies :func:`tests.helpers.paths_related` to every cached
key.  After every step the surviving keys (in LRU order), the dropped
entry count and the telemetry counter agree with the model, and the
path index holds exactly the paths of live entries.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.ops import PathArg
from repro.core.pipeline import BoundPath, Operation, ReadCache
from repro.core.telemetry import Telemetry
from tests.helpers import paths_related

CAPACITY = 6

#: deep paths, siblings sharing a prefix (/a/b vs /a/bb vs /ab), the root,
#: an export root with children, and lexically odd spellings
PATHS = (
    "/",
    "/a",
    "/a/b",
    "/a/bb",
    "/a/b/c",
    "/a/b/c/d/e/f",
    "/ab",
    "/a/",
    "//a",
    "/home/u/export",
    "/home/u/export/x",
    "/home/u/export/x/y",
    "/home/u/exports",
)

paths = st.sampled_from(PATHS)
identities = st.sampled_from(("fred", "wilma"))

reads = st.tuples(
    st.just("read"),
    identities,
    st.sampled_from(("stat", "getacl")),
    st.lists(paths, min_size=1, max_size=2),
)
mutations = st.tuples(
    st.just("mutate"),
    st.sampled_from(("unlink", "mkdir", "rename", "setacl", "pwrite", "exec")),
    st.lists(paths, max_size=2),
    st.one_of(st.none(), paths),  # acl_dir the monitor resolved
    st.one_of(st.none(), st.lists(st.one_of(st.none(), paths), max_size=2)),
)
flushes = st.tuples(st.just("flush"))
steps = st.lists(st.one_of(reads, mutations, flushes), max_size=40)


def bind(name, subs, identity="fred"):
    fields = ("path", "other")
    op = Operation(name=name, surface="test", identity=identity)
    for field, sub in zip(fields, subs):
        op.args[field] = sub
        op.paths.append(
            BoundPath(spec=PathArg(field), raw=sub, full=sub, sub=sub)
        )
    return op


class Model:
    """The cache as a plain LRU dict invalidated by brute force."""

    def __init__(self):
        self.entries = OrderedDict()
        self.invalidations = 0

    def read(self, key):
        if key in self.entries:
            self.entries.move_to_end(key)
            return
        self.entries[key] = {}
        while len(self.entries) > CAPACITY:
            self.entries.popitem(last=False)

    def drop(self, doomed):
        for key in doomed:
            del self.entries[key]
        self.invalidations += len(doomed)

    def mutate(self, name, subs, acl_dir, hints):
        mutated = list(subs)
        if acl_dir is not None:
            mutated.append(acl_dir)
        if hints is not None:
            if None in hints:
                return self.drop(list(self.entries))
            mutated.extend(hints)
        if not mutated or name == "exec":
            return self.drop(list(self.entries))
        self.drop(
            [
                key
                for key in self.entries
                if any(paths_related(c, m) for c in key[2] for m in mutated)
            ]
        )


def check_index(cache):
    live = {}
    for key in cache._entries:
        for path in key[2]:
            live.setdefault(path, set()).add(key)
    assert cache._by_path == live
    below = {}
    for path in live:
        for cut in range(len(path)):
            ancestor = path[:cut]
            if path.startswith(ancestor + "/"):
                below.setdefault(ancestor, set()).add(path)
    assert cache._below == below


@settings(max_examples=300)
@given(steps)
def test_index_matches_brute_force_model(script):
    telemetry = Telemetry()
    cache = ReadCache(capacity=CAPACITY, telemetry=telemetry)
    model = Model()
    for step in script:
        kind = step[0]
        if kind == "read":
            _, identity, name, subs = step
            op = bind(name, subs, identity)
            cache(op, None, lambda: {})
            model.read((identity, name, tuple(subs), ()))
        elif kind == "mutate":
            _, name, subs, acl_dir, hints = step
            op = bind(name, subs)
            if acl_dir is not None:
                op.scratch["acl_dir"] = acl_dir
            if hints is not None:
                op.scratch["fastlane_paths"] = list(hints)
            cache(op, None, lambda: {})
            model.mutate(name, subs, acl_dir, hints)
        else:
            cache.invalidate_all()
            model.drop(list(model.entries))
        assert list(cache._entries) == list(model.entries)
        assert cache.invalidations == model.invalidations
        assert (
            telemetry.counter_total("fastlane.cache.invalidations")
            == model.invalidations
        )
        check_index(cache)
