"""The standard chain's stage order, pinned one refusal point at a time.

Each case sends one op (after a short prelude where the refusal needs
one) through a Chirp server whose chain holds every stage: telemetry,
the denial counter, the identity gate, :class:`Admission` (budget and
circuit), :class:`ReadCache`, the ACL-file guard and the reference
monitor.  Where an op stops shows in what it leaves behind: its errno,
the ``pipeline.denials`` series and exemplar, ``pipeline.outcomes``, the
``admission.*`` and cache counters, the audit trail and the op's span.
The expected values were recorded from the interceptor-per-stage chain
that the composed one replaced.
"""

from __future__ import annotations

import pytest

from repro.chirp.server import ChirpServer, _Connection
from repro.core.acl import Acl
from repro.core.audit import AuditLog
from repro.core.pipeline import Admission, ReadCache
from repro.core.rights import Rights
from repro.core.telemetry import instrument
from repro.interpose.drivers import LocalDriver
from repro.kernel.errno import Errno, KernelError
from repro.net import Cluster
from repro.net.network import Peer

WHO = "hostname:cli"

#: what a case's world counts, by series name prefix
COUNTED = ("pipeline.denials", "pipeline.outcomes", "admission.", "fastlane.")


def _world(burst: int, threshold: int):
    cluster = Cluster()
    cluster.add_machine("srv")
    machine = cluster.machine("srv")
    telemetry = instrument(machine)
    owner = machine.add_user("op")
    audit = AuditLog()
    server = ChirpServer(
        machine,
        owner,
        network=cluster.network,
        audit=audit,
        limits=Admission(
            rate_per_s=1e-9, burst=burst, threshold=threshold, cooldown_ns=10**15
        ),
        telemetry=telemetry,
        read_cache=ReadCache(),
    )
    acl = Acl()
    acl.set_entry(WHO, Rights.parse("rl"))
    server.set_root_acl(acl)
    machine.write_file(server.owner_task, server.real_path("/f"), b"data")
    conn = _Connection(server=server, peer=Peer("cli"))
    conn.identity = WHO
    return server, conn, telemetry, audit


def _request(conn, name, **fields):
    return conn._outcome(name, dict(fields), None, "")


def _cross_driver_rename(conn):
    """A rename whose two paths route to different drivers."""
    server = conn.server
    op = conn._bind("rename", {"oldpath": "/f", "newpath": "/g"})
    op.paths[1].driver = LocalDriver(server.machine, server.owner_task)
    try:
        server.pipeline.run(op, conn)
    except KernelError as exc:
        return {"ok": False, "errno": int(exc.errno)}
    return {"ok": True}


def _observe(world, reply):
    server, _conn, telemetry, audit = world
    snap = telemetry.snapshot(spans=None)
    return {
        "errno": None if reply["ok"] else Errno(reply["errno"]).name,
        "counters": {
            key: value
            for key, value in snap["counters"].items()
            if key.startswith(COUNTED) and value
        },
        "exemplars": {
            key: value
            for key, value in snap["exemplars"].items()
            if key.startswith("pipeline.denials")
        },
        "audit": [
            (r.identity, r.operation, r.target.replace(server.export_root, "~"), r.allowed)
            for r in audit.records
        ],
        "spans": [
            (span.name, span.status, span.identity)
            for span in telemetry.spans
            if span.name.startswith("chirp:")
        ],
    }


def _unauthenticated(world):
    _server, conn, _t, _a = world
    conn.identity = None
    return _request(conn, "stat", path="/")


def _over_budget(world):
    _server, conn, _t, _a = world
    assert _request(conn, "stat", path="/f")["ok"]
    return _request(conn, "stat", path="/f")


def _open_circuit(world):
    _server, conn, _t, _a = world
    assert not _request(conn, "stat", path="/missing")["ok"]
    return _request(conn, "stat", path="/f")


def _acl_file_guard(world):
    _server, conn, _t, _a = world
    return _request(conn, "unlink", path="/.__acl")


def _exdev(world):
    _server, conn, _t, _a = world
    return _cross_driver_rename(conn)


def _monitor_eacces(world):
    _server, conn, _t, _a = world
    return _request(conn, "unlink", path="/f")


def _handler_error(world):
    _server, conn, _t, _a = world
    return _request(conn, "readdir", path="/f")


def _span(name, status):
    return (f"chirp:{name}", status, WHO)


def _outcome(name, status, n=1):
    return {f"pipeline.outcomes{{op={name},status={status},surface=chirp}}": n}


def _denied(name, errno, identity=WHO):
    key = f"pipeline.denials{{errno={errno},op={name},surface=chirp}}"
    return {key: 1}, {key: {"identity": identity, "errno": errno}}


_UNAUTH_DENIAL, _UNAUTH_EXEMPLAR = _denied("stat", "EACCES", "?")
_GUARD_DENIAL, _GUARD_EXEMPLAR = _denied("unlink", "EACCES")
_MONITOR_DENIAL, _MONITOR_EXEMPLAR = _denied("unlink", "EACCES")

#: case -> (burst, threshold, driver, expected observation)
CASES = {
    "unauthenticated": (
        8,
        3,
        _unauthenticated,
        {
            "errno": "EACCES",
            "counters": {**_UNAUTH_DENIAL, **_outcome("stat", "EACCES")},
            "exemplars": _UNAUTH_EXEMPLAR,
            "audit": [],
            "spans": [("chirp:stat", "EACCES", "?")],
        },
    ),
    "over_budget": (
        1,
        3,
        _over_budget,
        {
            "errno": "EAGAIN",
            "counters": {
                "admission.admitted": 1,
                "admission.successes": 1,
                "fastlane.cache.misses{op=stat}": 1,
                "fastlane.quota.rejections{op=stat}": 1,
                **_outcome("stat", "EAGAIN"),
                **_outcome("stat", "ok"),
            },
            "exemplars": {},
            "audit": [(WHO, "check:l", "~/f", True)],
            "spans": [_span("stat", "ok"), _span("stat", "EAGAIN")],
        },
    ),
    "open_circuit": (
        8,
        1,
        _open_circuit,
        {
            "errno": "EAGAIN",
            "counters": {
                "admission.admitted": 2,
                "admission.circuit_rejected": 1,
                "admission.failures": 1,
                "admission.trips": 1,
                **_outcome("stat", "EAGAIN"),
                **_outcome("stat", "ENOENT"),
            },
            "exemplars": {},
            "audit": [(WHO, "check:l", "~/missing", True)],
            "spans": [_span("stat", "ENOENT"), _span("stat", "EAGAIN")],
        },
    ),
    "acl_file_guard": (
        8,
        3,
        _acl_file_guard,
        {
            "errno": "EACCES",
            "counters": {
                "admission.admitted": 1,
                "admission.failures": 1,
                **_GUARD_DENIAL,
                **_outcome("unlink", "EACCES"),
            },
            "exemplars": _GUARD_EXEMPLAR,
            "audit": [],
            "spans": [_span("unlink", "EACCES")],
        },
    ),
    "exdev": (
        8,
        3,
        _exdev,
        {
            "errno": "EXDEV",
            "counters": {
                "admission.admitted": 1,
                "admission.failures": 1,
                **_outcome("rename", "EXDEV"),
            },
            "exemplars": {},
            "audit": [],
            "spans": [_span("rename", "EXDEV")],
        },
    ),
    "monitor_eacces": (
        8,
        3,
        _monitor_eacces,
        {
            "errno": "EACCES",
            "counters": {
                "admission.admitted": 1,
                "admission.failures": 1,
                **_MONITOR_DENIAL,
                **_outcome("unlink", "EACCES"),
            },
            "exemplars": _MONITOR_EXEMPLAR,
            "audit": [(WHO, "check:w", "~/f", False)],
            "spans": [_span("unlink", "EACCES")],
        },
    ),
    "handler_error": (
        8,
        3,
        _handler_error,
        {
            "errno": "ENOTDIR",
            "counters": {
                "admission.admitted": 1,
                "admission.failures": 1,
                **_outcome("readdir", "ENOTDIR"),
            },
            "exemplars": {},
            "audit": [(WHO, "check:l", "~/f", True)],
            "spans": [_span("readdir", "ENOTDIR")],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_refusal_point_leaves_what_the_stage_order_implies(case):
    burst, threshold, drive, expected = CASES[case]
    world = _world(burst, threshold)
    assert _observe(world, drive(world)) == expected
