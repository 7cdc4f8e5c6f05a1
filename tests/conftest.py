"""Shared fixtures for the reproduction's test suite.

Hypothesis profiles: ``dev`` (the default) behaves normally; ``ci``
derandomizes every property test so a CI run is fully reproducible —
the same examples on every machine, no flaky shrink timeouts.  Select
with ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import os

import pytest

from repro.core.box import IdentityBox
from repro.kernel.machine import Machine

from tests.helpers import make_machine

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    settings = None

if settings is not None:
    settings.register_profile("dev", settings())
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


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
