"""Distributed tracing across the Chirp wire.

The observability layer's cross-boundary claim: a client RPC span's
trace id rides the wire frame, the server's pipeline span reparents
under it, and the boxed syscalls a remote ``exec`` performs nest under
*that* — one trace from the laptop's call site to the server's kernel.
Under faults, a retried frame must reuse the original call's trace id
(the tracing analogue of the idempotency key).

These tests build their own clusters (and their own fault plans), so
they are independent of the suite-wide ``REPRO_FAULT_RATE`` knob.
"""

from repro.chirp import (
    CHIRP_PORT,
    ChirpClient,
    GlobusAuthenticator,
    RetryPolicy,
    ServerAuth,
)
from repro.core import Acl, Rights, Telemetry
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel.fdtable import OpenFlags
from repro.kernel.timing import NS_PER_MS, NS_PER_S
from repro.net import Cluster, FaultPlan
from tests.helpers import make_server

SERVER = "server1.nowhere.edu"
LAPTOP = "laptop.cs.nowhere.edu"
FRED_DN = "/O=UnivNowhere/CN=Fred"

RETRY = RetryPolicy(
    max_attempts=10,
    call_timeout_ns=5 * NS_PER_S,
    backoff_base_ns=5 * NS_PER_MS,
    seed=99,
)


def make_traced_world(plan=None):
    """One GSI-authenticated server with telemetry on both ends."""
    cluster = Cluster()
    cluster.add_machine(SERVER)
    cluster.add_machine(LAPTOP)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, FRED_DN)

    machine = cluster.machine(SERVER)
    server_tel = Telemetry(cluster.clock)
    machine.telemetry = server_tel
    owner = machine.add_user("dthain")
    server = make_server(
        machine,
        owner,
        network=cluster.network,
        auth=ServerAuth(credential_store=trust),
    )
    acl = Acl()
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    server.set_root_acl(acl)
    server.serve()

    def sim(proc, args):
        fd = yield proc.sys.open("out.dat", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        yield proc.sys.write(fd, proc.alloc_bytes(b"done\n"), 5)
        yield proc.sys.close(fd)
        return 0

    machine.register_program("sim", sim)
    if plan is not None:
        cluster.install_faults(plan)

    client_tel = Telemetry(cluster.clock)
    client = ChirpClient.connect(
        cluster.network, LAPTOP, SERVER,
        retry=RETRY if plan is not None else None,
        telemetry=client_tel,
    )
    client.authenticate([GlobusAuthenticator(wallet)])
    return cluster, server, server_tel, client, client_tel


def only_span(telemetry, name):
    spans = telemetry.spans_named(name)
    assert len(spans) == 1, f"expected exactly one {name!r} span, got {spans}"
    return spans[0]


# -- the nesting claim: laptop call site -> server kernel --------------------- #


def test_remote_exec_trace_nests_client_rpc_server_op_and_boxed_syscalls():
    _, _, server_tel, client, client_tel = make_traced_world()
    client.mkdir("/work")
    client.put(b"#!repro:sim\n", "/work/sim.exe", mode=0o755)
    assert client.exec("/work/sim.exe", cwd="/work") == 0

    rpc = only_span(client_tel, "rpc:exec")
    remote = only_span(server_tel, "chirp:exec")
    # the server's pipeline span reparented under the client's RPC span
    assert remote.trace_id == rpc.trace_id
    assert remote.parent_id == rpc.span_id
    assert remote.identity == f"globus:{FRED_DN}"
    # and the boxed program's syscalls nest under the server span, so the
    # whole remote execution is one trace rooted at the laptop's call
    syscalls = [
        s for s in server_tel.spans_in_trace(rpc.trace_id)
        if s.surface == "syscall"
    ]
    assert {s.name for s in syscalls} == {
        "syscall:open", "syscall:write", "syscall:close",
    }
    for span in syscalls:
        assert span.parent_id == remote.span_id
    # spans measure simulated time: the RPC envelops the server-side work
    assert rpc.duration_ns >= remote.duration_ns > 0


def test_unrelated_rpcs_get_distinct_traces():
    _, _, _, client, client_tel = make_traced_world()
    client.mkdir("/a")
    client.mkdir("/b")
    first, second = client_tel.spans_named("rpc:mkdir")
    assert first.trace_id != second.trace_id


# -- the retry claim: one logical call, one trace id -------------------------- #


def test_retried_frame_reuses_the_original_trace_id():
    # the request is dropped before the server ever sees it; only the
    # retried frame arrives — carrying the *original* trace id
    plan = FaultPlan(ports=(CHIRP_PORT,))
    _, server, server_tel, client, client_tel = make_traced_world(plan)
    plan.force("drop")
    client.mkdir("/w")

    assert client.stats.retries >= 1
    assert client_tel.counter("client.retries", op="mkdir").value >= 1
    rpc = only_span(client_tel, "rpc:mkdir")  # one logical call, one span
    remote = only_span(server_tel, "chirp:mkdir")
    assert remote.trace_id == rpc.trace_id
    assert remote.parent_id == rpc.span_id


def test_replayed_retry_shares_the_trace_and_executes_once():
    # the server applies the mkdir but the response dies: the retry hits
    # the idempotency cache, so exactly one pipeline span exists and it
    # belongs to the client call's trace
    plan = FaultPlan(ports=(CHIRP_PORT,))
    _, server, server_tel, client, client_tel = make_traced_world(plan)
    plan.force("drop_after")
    client.mkdir("/solo")

    assert server.stats.replays == 1
    assert server_tel.counter("chirp.replays", op="mkdir").value == 1
    rpc = only_span(client_tel, "rpc:mkdir")
    remote = only_span(server_tel, "chirp:mkdir")
    assert remote.trace_id == rpc.trace_id
    assert client.stat("/solo").is_dir


# -- pipeline stats surface the telemetry snapshot ---------------------------- #


def test_pipeline_stats_includes_a_detached_telemetry_section():
    _, server, server_tel, client, _ = make_traced_world()
    client.mkdir("/w")
    stats = server.pipeline.stats()
    ops_before = server_tel.counter_total("pipeline.ops")
    assert stats["telemetry"]["counters"]  # the mkdir was counted
    # mutating the returned structure must not corrupt live telemetry
    stats["telemetry"]["counters"].clear()
    stats["telemetry"]["spans"].clear()
    assert server_tel.counter_total("pipeline.ops") == ops_before
    assert server.pipeline.stats()["telemetry"]["counters"]
