"""The ``world`` parameter builds what each world names.

The plain, faulted and cached worlds are values of one test parameter
(``tests/conftest.py``).  These checks pin what a world puts in a
test's hands, which tests each world reaches, and that the plain run
keeps the bare test id.
"""

from repro.chirp import CHIRP_PORT
from tests.chirp.conftest import requires_perfect_network
from tests.helpers import CACHED, FAULT_RETRY, FAULTED, PLAIN


def test_each_world_builds_what_it_names(world, cluster, server):
    plan = cluster.network.faults
    if world is FAULTED:
        assert plan is not None and plan.ports == (CHIRP_PORT,)
        assert plan.drop_rate == plan.corrupt_rate == 0.1
        assert world.retry is FAULT_RETRY
    else:
        assert plan is None and world.retry is None
    assert (server.read_cache is not None) is (world is CACHED)


def test_a_world_without_a_fault_plan_is_plain_or_cached(world):
    assert world in (PLAIN, CACHED)


@requires_perfect_network
def test_a_marked_test_stays_on_perfect_wires(cluster):
    assert cluster.network.faults is None


def collected(request, name):
    """The ids a fresh collection of this module gives test ``name``."""
    return [item.name for item in request.node.parent.collect() if item.originalname == name]


def test_the_faulted_world_reaches_only_tests_that_build_its_plan(request):
    name = "test_each_world_builds_what_it_names"
    assert collected(request, name) == [name, f"{name}[faulted]", f"{name}[cached]"]
    for name in (
        "test_a_world_without_a_fault_plan_is_plain_or_cached",
        "test_a_marked_test_stays_on_perfect_wires",
    ):
        assert collected(request, name) == [name, f"{name}[cached]"]
