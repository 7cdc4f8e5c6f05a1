"""Workload runs fork their machines from warm templates when ``WORLD`` says so."""

from functools import partial

import pytest

from repro.workloads import runner
from tests.helpers import WORLD

PREPARE = runner._prepare


def prepare_runs(monkeypatch, *, use_snapshots: bool) -> None:
    """Make every run in the calling test cold-boot or fork its machines."""
    monkeypatch.setattr(runner, "_prepare", partial(PREPARE, use_snapshots=use_snapshots))


@pytest.fixture(autouse=True)
def world_prepare(monkeypatch):
    prepare_runs(monkeypatch, use_snapshots=WORLD.snapshot_fixtures)
