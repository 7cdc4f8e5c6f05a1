"""The shared operation pipeline: registry, interceptor chain, both surfaces.

The tentpole claim of the refactor is that one enforcement stack fronts
both entry surfaces.  These tests exercise the pipeline in isolation
(registration rules, ordering, short-circuiting) and then prove the
unification: a single counting interceptor added to each surface's
pipeline observes a boxed ``open`` syscall *and* a Chirp ``open`` RPC.
"""

import sys

import pytest

from repro.chirp import (
    ChirpClient, ChirpError, FederatedClient, HostnameAuthenticator, ShardMap,
)
from repro.core import Acl, Rights
from repro.core.audit import AuditLog
from repro.core.box import IdentityBox
from repro.core.ops import OpRegistry, OpSpec, PathArg
from repro.core.pipeline import BoundPath, Operation, Pipeline, build_pipeline
from repro.core.telemetry import TracingInterceptor
from repro.kernel.errno import Errno, KernelError, err
from repro.kernel.fdtable import OpenFlags
from repro.net import Cluster, FaultPlan
from tests.helpers import make_server, run_calls


# -- registry rules ---------------------------------------------------------- #


def test_registry_rejects_duplicate_op_names():
    registry = OpRegistry()
    registry.register(OpSpec("open", lambda op, ctx: None))
    with pytest.raises(ValueError, match="duplicate op 'open'"):
        registry.register(OpSpec("open", lambda op, ctx: None))


def test_registry_lookup_of_unknown_op_raises():
    with pytest.raises(KeyError):
        OpRegistry().get("frobnicate")


# -- interceptor chain mechanics --------------------------------------------- #


def _tap(name, log):
    def interceptor(op, ctx, proceed):
        log.append(f"{name}:enter")
        result = proceed()
        log.append(f"{name}:exit")
        return result

    return interceptor


def test_interceptors_run_in_declared_order():
    log = []
    registry = OpRegistry()
    registry.register(OpSpec("noop", lambda op, ctx: log.append("handler")))
    pipeline = Pipeline(registry, [_tap("outer", log), _tap("inner", log)])
    pipeline.run(Operation(name="noop", surface="test"), ctx=None)
    assert log == ["outer:enter", "inner:enter", "handler", "inner:exit", "outer:exit"]


def test_add_interceptor_defaults_to_outermost():
    log = []
    registry = OpRegistry()
    registry.register(OpSpec("noop", lambda op, ctx: None))
    pipeline = Pipeline(registry, [_tap("existing", log)])
    pipeline.add_interceptor(_tap("added", log))
    pipeline.run(Operation(name="noop", surface="test"), ctx=None)
    assert log[:2] == ["added:enter", "existing:enter"]


def test_denying_interceptor_short_circuits_before_handler():
    ran = []

    def denying_monitor(op, ctx, proceed):
        raise err(Errno.EACCES, "monitor says no")

    registry = OpRegistry()
    registry.register(OpSpec("write", lambda op, ctx: ran.append(op.name)))
    pipeline = Pipeline(registry, [denying_monitor])
    with pytest.raises(KernelError) as excinfo:
        pipeline.run(Operation(name="write", surface="test"), ctx=None)
    assert excinfo.value.errno is Errno.EACCES
    assert ran == []  # the handler never executed


def _frames_below_run() -> int:
    """Python frames between the caller's caller and ``Pipeline.run``."""
    frame, depth = sys._getframe(2), 0
    while frame.f_code is not Pipeline.run.__code__:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_the_standard_chain_puts_two_frames_between_run_and_the_handler(box):
    """Denial counting, the identity gate, the ACL-file guard and the
    reference monitor are steps of one composed stage, not a frame each."""
    depths = []
    spec = PathArg("path", "l")
    registry = OpRegistry()
    for name, paths in (("probe", ()), ("probe_path", (spec,))):
        registry.register(
            OpSpec(name, lambda op, ctx: depths.append(_frames_below_run()), paths=paths)
        )
    pipeline = build_pipeline(
        registry, policy=box.supervisor.policy, resolve_identity=lambda op, ctx: "Visitor"
    )
    pipeline.run(Operation(name="probe", surface="test"), ctx=None)
    home = box.home  # the visitor's own: its ACL grants the visitor "l"
    op = Operation(name="probe_path", surface="test")
    op.paths = [BoundPath(spec=spec, raw=home, full=home, sub=home)]
    pipeline.run(op, ctx=None)
    assert depths == [2, 2]


# -- counter semantics match the pre-refactor surfaces ----------------------- #


def test_supervisor_denial_and_syscall_counters(machine, alice, alice_task, box):
    machine.write_file(alice_task, "/home/alice/secret", b"s", mode=0o600)
    results = run_calls(
        [("open", "ok.txt", OpenFlags.O_WRONLY | OpenFlags.O_CREAT, 0o644),
         ("open", "/home/alice/secret", OpenFlags.O_RDONLY)],
        machine=machine,
        box=box,
    )
    assert results[0] >= 3  # the permitted open yielded a real fd
    assert results[1] == -int(Errno.EACCES)
    assert box.supervisor.syscalls_handled >= 2
    assert box.supervisor.denials == 1


def _hostname_server(world):
    cluster = Cluster()
    cluster.add_machine("srv")
    cluster.add_machine("cli")
    machine = cluster.machine("srv")
    owner = machine.add_user("op")
    server = make_server(machine, owner, read_cache=world.read_cache, network=cluster.network)
    acl = Acl()
    acl.set_entry("hostname:cli", Rights.parse("rwl"))
    server.set_root_acl(acl)
    server.serve()
    client = ChirpClient.connect(cluster.network, "cli", "srv")
    client.authenticate([HostnameAuthenticator()])
    return server, client


def test_server_stats_count_denials(world):
    server, client = _hostname_server(world)
    client.put(b"fine", "/allowed.txt")
    with pytest.raises(ChirpError) as excinfo:
        client.setacl("/", "hostname:cli", "rwlxa")  # no 'a' right granted
    assert excinfo.value.errno is Errno.EACCES
    assert server.stats.denials == 1
    assert server.stats.ops >= 3  # auth counts, put is one putfile, setacl


def test_unauthenticated_op_counts_as_denial(world):
    server, client = _hostname_server(world)
    raw = ChirpClient.connect(server.network, "cli", "srv")
    with pytest.raises(ChirpError) as excinfo:
        raw.stat("/")
    assert excinfo.value.errno is Errno.EACCES
    assert server.stats.denials >= 1


# -- every stats object is a read-only view of the telemetry registry ------- #


def test_assigning_any_stats_field_raises(world):
    server, _client = _hostname_server(world)
    fed = FederatedClient(server.network, "cli", ShardMap("pool", 1, ()), [])
    for stats, fields in [
        (server.stats, "connections auth_failures ops execs bytes_read bytes_written"
         " denials protocol_errors sheds replays batches coalesced"),
        (fed.stats, "routed map_refreshes map_rebuilds transfers transfer_bytes"
         " quorum_writes quorum_failures failover_reads marks"),
        (FaultPlan().stats, "injected"),
    ]:
        for field in fields.split():
            with pytest.raises(AttributeError):
                setattr(stats, field, getattr(stats, field))


def _untraced(pipeline) -> bool:
    return pipeline.telemetry is None and not any(
        isinstance(stage, TracingInterceptor) for stage in pipeline.interceptors
    )


def test_owners_without_telemetry_add_no_tracing_and_record_no_spans(
    machine, alice_task, box, world
):
    server, client = _hostname_server(world)
    client.put(b"payload", "/f")
    with pytest.raises(ChirpError):
        client.setacl("/", "hostname:cli", "rwlxa")  # no 'a' right: denied
    assert (server.stats.ops, server.stats.denials) == (3, 1)
    assert _untraced(server.pipeline) and _untraced(server.supervisor.pipeline)
    assert not server.metrics.spans and not server.pipeline.denial_counter.telemetry.spans
    machine.write_file(alice_task, "/home/alice/secret", b"s", mode=0o600)
    run_calls([("open", "/home/alice/secret", OpenFlags.O_RDONLY)], machine=machine, box=box)
    assert _untraced(box.supervisor.pipeline) and box.supervisor.denials == 1
    assert not box.supervisor.pipeline.denial_counter.telemetry.spans


# -- the unification proof: one interceptor sees both surfaces --------------- #


class CountingInterceptor:
    """Counts every operation flowing through whichever pipeline hosts it."""

    def __init__(self):
        self.seen = []

    def __call__(self, op, ctx, proceed):
        self.seen.append((op.surface, op.name))
        return proceed()


def test_counting_interceptor_fires_on_both_surfaces(machine, alice, box, world):
    counter = CountingInterceptor()

    # surface 1: a boxed open trapped by the supervisor
    box.supervisor.pipeline.add_interceptor(counter)
    run_calls(
        [("open", "note.txt", OpenFlags.O_WRONLY | OpenFlags.O_CREAT, 0o644)],
        machine=machine,
        box=box,
    )
    assert ("syscall", "open") in counter.seen

    # surface 2: a Chirp open RPC on a different machine entirely
    server, client = _hostname_server(world)
    server.pipeline.add_interceptor(counter)
    fd = client.open("/remote.txt", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
    client.close_fd(fd)
    assert ("chirp", "open") in counter.seen


# -- audit flows through the shared sink ------------------------------------- #


def test_denied_syscall_is_audited_through_pipeline(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/secret", b"s", mode=0o600)
    audit = AuditLog()
    box = IdentityBox(machine, alice, "Visitor", audit=audit)
    run_calls(
        [("open", "/home/alice/secret", OpenFlags.O_RDONLY)],
        machine=machine,
        box=box,
    )
    denied = audit.denials()
    assert denied and denied[0].operation == "check:r"
    assert denied[0].identity == "Visitor"


def test_chirp_ops_are_audited_when_log_attached(world):
    cluster = Cluster()
    cluster.add_machine("srv")
    cluster.add_machine("cli")
    machine = cluster.machine("srv")
    owner = machine.add_user("op")
    audit = AuditLog()
    server = make_server(
        machine, owner, read_cache=world.read_cache, network=cluster.network, audit=audit
    )
    acl = Acl()
    acl.set_entry("hostname:cli", Rights.parse("rwl"))
    server.set_root_acl(acl)
    server.serve()
    client = ChirpClient.connect(cluster.network, "cli", "srv")
    principal = client.authenticate([HostnameAuthenticator()])
    client.put(b"hi", "/hello.txt")
    checks = [r for r in audit.records if r.operation.startswith("check:")]
    assert checks and all(r.identity == principal for r in checks)
