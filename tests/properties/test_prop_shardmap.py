"""Property tests: the federation shard map.

Routing must be *total* (every path has exactly one owner), *stable*
(independent of construction order, process, or path tail), and
*monotone under growth* (adding a shard only moves prefixes onto the
newcomer — never between survivors).  These are the properties that make
a cached shard map safe: two clients with the same membership agree, and
a rebuild after a join invalidates only the stolen ranges.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.chirp import federation
from repro.chirp.federation import ShardInfo, ShardMap, path_prefix

#: Small rings keep map construction cheap under many examples; balance
#: quality is a bench concern, not a property.
VNODES = 8

shard_names = st.lists(
    st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=8),
    min_size=1,
    max_size=6,
    unique=True,
)

#: Path components; "." and ".." are excluded because normalization
#: resolves them away before routing ever sees them.
prefixes = st.text(
    alphabet="abcdefghijklmnop0123456789._-", min_size=0, max_size=12
).filter(lambda s: s not in (".", ".."))

weights = st.integers(min_value=1, max_value=3)


def build_map(names, version=1, weight_list=None, replicas=1):
    shards = tuple(
        sorted(
            (
                ShardInfo(name=n, hostname=n, weight=(weight_list or {}).get(n, 1))
                for n in names
            ),
            key=lambda s: s.name,
        )
    )
    return ShardMap(
        federation="pool", version=version, shards=shards, vnodes=VNODES, replicas=replicas
    )


@settings(deadline=None)
@given(shard_names, prefixes)
def test_routing_is_total_and_stable(names, prefix):
    shard_map = build_map(names)
    owner = shard_map.shard_for_prefix(prefix)
    assert owner.name in names  # total: always exactly one live owner
    assert shard_map.shard_for_prefix(prefix) is owner  # stable on re-ask
    # a freshly built map with the same membership routes identically:
    # two independent clients always agree (no process-local state)
    rebuilt = build_map(list(reversed(names)))
    assert rebuilt.shard_for_prefix(prefix).name == owner.name


@settings(deadline=None)
@given(shard_names, prefixes, prefixes)
def test_routing_depends_only_on_the_first_path_component(names, prefix, tail):
    shard_map = build_map(names)
    prefix = prefix or "p"  # the root routes by fan-out, not by prefix
    base = shard_map.shard_for(f"/{prefix}").name
    assert shard_map.shard_for(f"/{prefix}/{tail}").name == base
    assert shard_map.shard_for(f"/{prefix}/a/b/c").name == base
    assert path_prefix(f"/{prefix}/{tail}/x") == prefix


@settings(deadline=None)
@given(shard_names, st.text(alphabet="xyz", min_size=1, max_size=4), prefixes)
def test_adding_a_shard_only_moves_prefixes_onto_the_newcomer(
    names, new_suffix, prefix
):
    newcomer = f"new-{new_suffix}"  # disjoint alphabet: never a collision
    before = build_map(names, version=1)
    after = build_map(names + [newcomer], version=2)
    old = before.shard_for_prefix(prefix).name
    new = after.shard_for_prefix(prefix).name
    # monotone: a prefix either stays put or lands on the new shard —
    # growth never shuffles data between surviving shards
    assert new == old or new == newcomer


@settings(deadline=None)
@given(shard_names, weights, prefixes)
def test_weight_changes_preserve_totality(names, weight, prefix):
    weighted = build_map(names, weight_list={names[0]: weight})
    assert weighted.shard_for_prefix(prefix).name in names


@settings(deadline=None)
@given(
    shard_names,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.lists(prefixes, max_size=40),
)
def test_memoized_placement_is_a_fresh_ring_walk(names, replicas, cap, asked):
    """Every placement a map answers, remembered or not, is the one a
    newly built map walks its ring to, also once the memo has been full
    and started over; and the memo never holds more than its cap."""
    with mock.patch.object(federation, "PLACEMENT_MEMO_ENTRIES", cap):
        shard_map = build_map(names, replicas=replicas)
        for prefix in asked + asked:  # the second pass asks remembered prefixes
            got = shard_map.replicas_for_prefix(prefix)
            assert got == build_map(names, replicas=replicas)._place(prefix)
            assert shard_map.replicas_for_prefix(prefix) is got
            assert len(shard_map._placements) <= cap


def test_a_new_map_version_starts_with_an_empty_memo():
    old = build_map(["a", "b", "c"], version=1)
    old.replicas_for_prefix("p")
    new = build_map(["a", "b", "c", "d"], version=2)
    assert new._placements == {}
    assert "p" in old._placements
