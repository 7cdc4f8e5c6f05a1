"""Shared fixtures for the reproduction's test suite.

Worlds: a test that asks for ``world`` (itself, or through a fixture such
as the Chirp ``cluster`` and ``server``) runs in the ``plain`` and
``cached`` worlds of :data:`tests.helpers.WORLDS`, since ``make_server``
and ``make_fed_world`` take the world's ``read_cache``.  It also runs in
the ``faulted`` world if its fixtures include ``make_fault_plan``, the
one place that world's plan is built, unless it is marked
``requires_perfect_network``.  The ``plain`` run keeps the test's bare
id; the others add ``faulted`` or ``cached`` to it.

Hypothesis profiles: ``dev`` (the default) behaves normally; ``ci``
derandomizes every property test so a CI run is fully reproducible —
the same examples on every machine, no flaky shrink timeouts.  Select
with ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import os

import pytest

from repro.chirp import CHIRP_PORT
from repro.config import DEFAULT_FAULT_SEED
from repro.core.box import IdentityBox
from repro.kernel.machine import Machine
from repro.net import FaultPlan

from tests.helpers import CACHED, PLAIN, WORLDS, make_machine

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    settings = None

if settings is not None:
    settings.register_profile("dev", settings())
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_perfect_network: never run in the faulted world (the test asserts "
        "exact transport behavior or operation counts)",
    )


def pytest_generate_tests(metafunc):
    if "world" not in metafunc.fixturenames:
        return
    faulted = "make_fault_plan" in metafunc.fixturenames and not (
        metafunc.definition.get_closest_marker("requires_perfect_network")
    )
    worlds = WORLDS if faulted else (PLAIN, CACHED)
    metafunc.parametrize("world", [
        pytest.param(world, id=pytest.HIDDEN_PARAM if world is PLAIN else world.name)
        for world in worlds
    ])


@pytest.fixture
def make_fault_plan(world):
    """Make a fresh copy of the world's fault plan: a seeded 10% plan on
    the Chirp port in the faulted world, None (perfect wires) elsewhere.
    A plan counts its draws, so every cluster needs its own copy."""

    def fault_plan() -> FaultPlan | None:
        if not world.faulted:
            return None
        return FaultPlan.uniform(seed=DEFAULT_FAULT_SEED, rate=0.1, ports=(CHIRP_PORT,))

    return fault_plan


@pytest.fixture
def machine() -> Machine:
    """A fresh simulated host.

    An O(size-of-diff) fork of a once-per-session warm world rather than
    a cold boot — observably identical, measurably faster (see
    ``benchmarks/bench_snapshot_fork.py``).
    """
    return make_machine()


@pytest.fixture
def alice(machine):
    """An ordinary local user with a home directory."""
    return machine.add_user("alice")


@pytest.fixture
def alice_task(machine, alice):
    """A host-level task running as alice, cwd in her home."""
    return machine.host_task(alice, cwd="/home/alice")


@pytest.fixture
def root_task(machine):
    return machine.host_task(machine.users.credentials_for("root"))


@pytest.fixture
def box(machine, alice):
    """An identity box supervised by alice for visitor 'Visitor'."""
    return IdentityBox(machine, alice, "Visitor")
