"""Chirp under fire: retries, idempotency, degradation, and the sweep.

The acceptance bar for the fault layer: with a seeded plan injecting 10%
drops/spikes/corruption plus a whole-server restart, every workload's
Chirp staging flow completes *byte-identical* to its fault-free run, no
mutating operation is applied twice, and the resilience counters account
for what happened.
"""

import pytest

from repro.chirp import (
    CHIRP_PORT,
    CHUNK,
    ChirpClient,
    ChirpDriver,
    ChirpError,
    GlobusAuthenticator,
    HostnameAuthenticator,
    RetryPolicy,
    ServerAuth,
)
from repro.chirp.protocol import request
from repro.chirp.server import IDEM_CACHE_LIMIT
from repro.core import Acl, Admission, Rights
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel.errno import Errno, KernelError
from repro.kernel.fdtable import OpenFlags
from repro.kernel.timing import NS_PER_MS, NS_PER_S
from repro.net import Cluster, FaultPlan
from repro.net.faults import mangle_frame
from repro.net.rpc import decode_message, encode_message
from repro.workloads import AMANDA, BLAST, CMS, HF, IBIS, MAKE
from tests.helpers import forge_frame, make_server

SERVER = "server1.nowhere.edu"
LAPTOP = "laptop.cs.nowhere.edu"
FRED_DN = "/O=UnivNowhere/CN=Fred"

#: Deterministic test policy: small backoffs so faulted runs stay fast.
RETRY = RetryPolicy(
    max_attempts=10,
    call_timeout_ns=5 * NS_PER_S,
    backoff_base_ns=5 * NS_PER_MS,
    seed=99,
)


def make_world(plan=None, **server_kwargs):
    """A one-server cluster with GSI auth, optionally under a fault plan;
    ``server_kwargs`` (``limits=``, ``read_cache=``) go to the server."""
    cluster = Cluster()
    cluster.add_machine(SERVER)
    cluster.add_machine(LAPTOP)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, FRED_DN)

    machine = cluster.machine(SERVER)
    owner = machine.add_user("dthain")
    server = make_server(
        machine,
        owner,
        network=cluster.network,
        auth=ServerAuth(credential_store=trust),
        **server_kwargs,
    )
    acl = Acl()
    acl.set_entry("hostname:*.nowhere.edu", Rights.parse("rlx"))
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    server.set_root_acl(acl)
    server.serve()

    def sim(proc, args):
        yield proc.compute(ms=1)
        fd = yield proc.sys.open("out.dat", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        addr = proc.alloc_bytes(b"results\n" * 64)
        yield proc.sys.write(fd, addr, 8 * 64)
        yield proc.sys.close(fd)
        return 0

    machine.register_program("sim", sim)
    if plan is not None:
        cluster.install_faults(plan)
    return cluster, server, wallet


def connect_fred(cluster, wallet, retry=RETRY):
    client = ChirpClient.connect(cluster.network, LAPTOP, SERVER, retry=retry)
    client.authenticate([GlobusAuthenticator(wallet)])
    return client


# ---------------------------------------------------------------------- #
# the acceptance sweep: every workload, 10% faults, one server restart
# ---------------------------------------------------------------------- #


def input_bytes(profile):
    """Deterministic multi-chunk payload, distinct per workload."""
    salt = len(profile.name)
    return bytes((i * 7 + salt) % 251 for i in range(CHUNK + 4321))


def stage_and_run(client, profile):
    """The Figure-3 staging flow a workload performs against Chirp."""
    work = f"/{profile.name.lower().replace(' ', '-')}"
    data = input_bytes(profile)
    client.mkdir(work)
    client.put(data, f"{work}/input.dat")
    client.put(b"#!repro:sim\n", f"{work}/sim.exe", mode=0o755)
    size = client.stat(f"{work}/input.dat").size
    client.rename(f"{work}/input.dat", f"{work}/staged.dat")
    status = client.exec(f"{work}/sim.exe", cwd=work)
    return {
        "size": size,
        "status": status,
        "listing": sorted(client.readdir(work)),
        "staged": client.get(f"{work}/staged.dat"),
        "out": client.get(f"{work}/out.dat"),
        "whoami": client.whoami(),
    }


@pytest.mark.parametrize(
    "profile", [AMANDA, BLAST, CMS, HF, IBIS, MAKE], ids=lambda p: p.name
)
def test_every_workload_survives_ten_percent_faults(profile):
    # the reference run, on perfect wires
    cluster, _, wallet = make_world()
    fred = connect_fred(cluster, wallet, retry=None)
    want = stage_and_run(fred, profile)
    assert want["status"] == 0 and want["size"] == len(input_bytes(profile))

    # the same flow under 10% of every fault kind plus a server restart
    plan = FaultPlan.uniform(
        seed=20260805, rate=0.10, restart_at_ops=(8,), ports=(CHIRP_PORT,)
    )
    cluster, server, wallet = make_world(plan)
    fred = connect_fred(cluster, wallet)
    got = stage_and_run(fred, profile)

    assert got == want  # byte-identical despite the weather
    assert plan.stats.total() > 0, "the plan never actually fired"
    assert fred.stats.retries > 0
    # no double-applies: a replayed mkdir/rename would have raised
    # EEXIST/ENOENT and broken the equality above; the replay counter
    # shows how often the idempotency cache had to answer for a retry
    assert server.stats.replays >= 0
    assert fred.stats.reconnects >= 1  # the restart alone guarantees one


def test_fault_free_clock_cost_is_unchanged_by_the_fault_hooks():
    """Installing a zero-rate plan must not slow the simulated fast path."""
    elapsed = []
    for plan in (None, FaultPlan()):
        cluster, _, wallet = make_world(plan)
        fred = connect_fred(cluster, wallet, retry=None)
        start = cluster.clock.now_ns
        stage_and_run(fred, AMANDA)
        elapsed.append(cluster.clock.now_ns - start)
    assert elapsed[0] == elapsed[1]


# ---------------------------------------------------------------------- #
# idempotency: a lost response never re-applies a mutating op
# ---------------------------------------------------------------------- #


def test_rename_with_lost_response_is_replayed_not_reapplied():
    plan = FaultPlan(ports=(CHIRP_PORT,))
    cluster, server, wallet = make_world(plan)
    fred = connect_fred(cluster, wallet)
    fred.mkdir("/w")
    fred.put(b"payload", "/w/a")
    plan.force("drop_after")  # the server renames; the response dies
    fred.rename("/w/a", "/w/b")  # a naive retry would see ENOENT here
    assert server.stats.replays == 1
    assert sorted(fred.readdir("/w")) == ["b"]
    assert fred.get("/w/b") == b"payload"


def test_putfile_with_lost_response_replays_over_a_later_write():
    # A's putfile lands, its reply dies, and B's putfile lands before A
    # retries: the retry must replay A's reply, not write A's bytes again
    plan = FaultPlan(ports=(CHIRP_PORT,))
    cluster, server, wallet = make_world(plan)
    writer_a = connect_fred(cluster, wallet)
    writer_b = connect_fred(cluster, wallet)
    writer_a.mkdir("/w")
    reconnect = writer_a._reconnect

    def b_writes_first():
        assert writer_b.put(b"from-b", "/w/f") == 6
        reconnect()

    writer_a._reconnect = b_writes_first
    plan.force("drop_after")
    assert writer_a.put(b"from-a", "/w/f") == 6
    assert server.stats.replays == 1
    assert writer_a.stats.retries == 1
    assert writer_a.get("/w/f") == b"from-b"


def test_mkdir_with_lost_response_is_replayed_not_reapplied():
    plan = FaultPlan(ports=(CHIRP_PORT,))
    cluster, server, wallet = make_world(plan)
    fred = connect_fred(cluster, wallet)
    plan.force("drop_after")
    fred.mkdir("/solo")  # a naive retry would see EEXIST here
    assert server.stats.replays == 1
    assert fred.stat("/solo").is_dir


def test_replay_window_holds_exactly_the_last_limit_replies():
    # the cache keeps the last IDEM_CACHE_LIMIT keyed replies, evicted in
    # first-reply order; a replay does not refresh its key
    cluster, server, wallet = make_world()
    fred = connect_fred(cluster, wallet, retry=None)

    def mkdir(key, path):
        return decode_message(fred.connection.call(request("mkdir", path=path, idem=key)))

    for i in range(IDEM_CACHE_LIMIT):
        assert mkdir(f"k{i}", f"/d{i}")["ok"]
    assert mkdir("k0", "/d0")["ok"]  # IDEM_CACHE_LIMIT replies back: replayed
    assert server.stats.replays == 1
    assert mkdir("k-new", "/d-new")["ok"]  # evicts k0: the replay did not refresh it
    assert mkdir("k1", "/d1")["ok"]  # so k1 survived and is replayed
    assert server.stats.replays == 2
    # the known gap: a retry after eviction re-executes
    assert mkdir("k0", "/d0")["errno"] == int(Errno.EEXIST)
    assert server.stats.replays == 2


def test_server_restart_mid_transfer_revives_the_descriptor():
    # ops: auth=1, mkdir=2, putfile=3 <- crash lands on the transfer
    plan = FaultPlan(restart_at_ops=(3,), ports=(CHIRP_PORT,))
    cluster, _, wallet = make_world(plan)
    fred = connect_fred(cluster, wallet)
    fred.mkdir("/big")
    data = input_bytes(BLAST)
    assert fred.put(data, "/big/blob") == len(data)
    assert fred.stats.retries == 1  # the whole putfile ran again
    assert fred.stats.reauths >= 1  # new connection, same principal
    assert fred.stats.transfer_restarts == 0  # a put holds no descriptor
    assert fred.get("/big/blob") == data  # and the bytes are whole
    # a Parrot descriptor does outlive a crash: the driver's handle is
    # reopened and its positioned write lands at the same offset
    driver = ChirpDriver(
        cluster.network, LAPTOP, [GlobusAuthenticator(wallet)], retry=RETRY
    )
    handle = driver.open(f"/{SERVER}/big/blob", OpenFlags.O_WRONLY, 0o644)
    plan.force("restart")
    assert driver.pwrite(handle, b"XYZ", 0) == 3
    assert handle.client.stats.transfer_restarts == 1
    driver.close(handle)
    assert fred.get("/big/blob") == b"XYZ" + data[3:]


# ---------------------------------------------------------------------- #
# frame damage: poisoning is per-connection, never per-server
# ---------------------------------------------------------------------- #


def test_corrupted_request_poisons_one_connection_only():
    plan = FaultPlan(ports=(CHIRP_PORT,))
    cluster, server, wallet = make_world(plan)
    fred = connect_fred(cluster, wallet)
    bystander = connect_fred(cluster, wallet)
    plan.force("corrupt")
    assert fred.whoami() == f"globus:{FRED_DN}"  # retried on a fresh wire
    assert server.stats.protocol_errors == 1
    assert fred.stats.reconnects >= 1
    # the accept loop and every other connection are untouched
    assert bystander.whoami() == f"globus:{FRED_DN}"


def poisons_one_connection_only(frame):
    cluster, server, wallet = make_world()
    bystander = connect_fred(cluster, wallet, retry=None)
    conn = cluster.network.connect(LAPTOP, SERVER, CHIRP_PORT)
    reply = decode_message(conn.call(frame))
    assert reply["ok"] is False and reply["errno"] == int(Errno.EBADMSG)
    assert server.stats.protocol_errors == 1
    # the connection stays poisoned, even for a well-formed frame
    reply = decode_message(conn.call(encode_message({"op": "whoami"})))
    assert reply["errno"] == int(Errno.EPIPE)
    assert bystander.whoami() == f"globus:{FRED_DN}"


def test_malformed_bytes_tag_poisons_one_connection_only():
    # the payload slot points at the path string, not at a null
    poisons_one_connection_only(
        forge_frame(b'{"op":"stat","path":"/x"}', b'[[["path"],1]]', b"x")
    )


PWRITE = encode_message({"op": "pwrite", "fd": 3, "offset": 0, "data": b"x" * 64})


@pytest.mark.parametrize(
    "frame",
    [
        forge_frame(b'{"op":"pwrite","data":null}', b'[[["nope"],2]]', b"hi"),
        forge_frame(b'{"op":"pwrite","data":null}', b'[[["data"],99]]', b"hi"),
        PWRITE[: len(PWRITE) // 2],  # what the truncate fault does
        mangle_frame(PWRITE),  # what the corrupt fault does
        forge_frame(b"[" * 50_000 + b"]" * 50_000),  # deeper than the recursion limit
    ],
    ids=["bad-slot-path", "slot-past-the-end", "truncated", "corrupted", "deeply-nested"],
)
def test_damaged_frames_on_a_live_connection_get_ebadmsg(frame):
    poisons_one_connection_only(frame)


def pwrite_dies(client, plan, deaths):
    """Patch ``client.pwrite`` so its next ``deaths`` calls each lose the
    wire: the drop forces a reconnect, and the retried pwrite then finds
    its descriptor dead."""
    pwrite, dropped = client.pwrite, []

    def pwrite_on_a_dying_wire(fd, data, offset):
        if len(dropped) < deaths:
            dropped.append(fd)
            plan.force("drop")
        return pwrite(fd, data, offset)

    client.pwrite = pwrite_on_a_dying_wire


def driver_writer(cluster, wallet):
    driver = ChirpDriver(cluster.network, LAPTOP, [GlobusAuthenticator(wallet)], retry=RETRY)
    handle = driver.open(f"/{SERVER}/w/out", OpenFlags.O_WRONLY | OpenFlags.O_CREAT, 0o644)
    return handle.client, lambda: driver.pwrite(handle, b"abc", 0)


# only the driver holds descriptors: ``put`` is one keyed putfile, so a
# lost wire retries it whole (test_server_restart_mid_transfer_...)
@pytest.mark.parametrize("writer", [driver_writer], ids=["driver"])
@pytest.mark.parametrize("deaths", [1, RETRY.max_attempts - 1, RETRY.max_attempts])
def test_descriptor_survives_losing_the_wire_during_its_revival(writer, deaths):
    # each death spends one of the op's max_attempts descriptor attempts
    plan = FaultPlan(ports=(CHIRP_PORT,))
    cluster, _server, wallet = make_world(plan)
    fred = connect_fred(cluster, wallet)
    fred.mkdir("/w")
    client, write = writer(cluster, wallet)
    pwrite_dies(client, plan, deaths)
    if deaths < RETRY.max_attempts:
        assert write() == 3
        assert client.stats.transfer_restarts == deaths
        assert fred.get("/w/out") == b"abc"
        return
    with pytest.raises((ChirpError, KernelError)) as excinfo:
        write()
    assert excinfo.value.errno is Errno.EBADF
    assert client.stats.transfer_restarts == RETRY.max_attempts - 1


def test_truncated_response_is_transient_and_retried():
    plan = FaultPlan(ports=(CHIRP_PORT,))
    cluster, _, wallet = make_world(plan)
    fred = connect_fred(cluster, wallet)
    plan.force("truncate")
    assert fred.whoami() == f"globus:{FRED_DN}"
    assert fred.stats.retries >= 1 and fred.stats.reconnects >= 1


def test_late_response_counts_as_timeout_and_is_retried():
    plan = FaultPlan(spike_ns=3 * NS_PER_S, ports=(CHIRP_PORT,))
    cluster, _, wallet = make_world(plan)
    fred = connect_fred(
        cluster, wallet, retry=RetryPolicy(call_timeout_ns=1 * NS_PER_S, seed=99)
    )
    plan.force("spike")
    assert fred.whoami() == f"globus:{FRED_DN}"
    assert fred.stats.timeouts == 1


# ---------------------------------------------------------------------- #
# graceful degradation: shedding and the circuit breaker
# ---------------------------------------------------------------------- #


def test_overload_shed_returns_eagain_and_backoff_drains_it():
    overload = Admission(arrival_rate_per_s=200.0, arrival_burst=2)
    cluster, server, wallet = make_world(limits=overload)
    fred = connect_fred(cluster, wallet)  # auth spends a token
    fred.mkdir("/w")  # the burst is gone now
    for i in range(6):
        fred.put(b"x", f"/w/f{i}")
    assert server.stats.sheds > 0  # EAGAIN happened...
    assert fred.stats.retries > 0  # ...and backoff absorbed it
    assert sorted(fred.readdir("/w")) == [f"f{i}" for i in range(6)]


def test_overload_shed_without_retry_surfaces_eagain():
    overload = Admission(arrival_rate_per_s=0.001, arrival_burst=1)
    cluster, server, wallet = make_world(limits=overload)
    fred = connect_fred(cluster, wallet, retry=None)  # auth drains the bucket
    with pytest.raises(ChirpError) as info:
        fred.stat("/")
    assert info.value.errno is Errno.EAGAIN
    assert server.stats.sheds == 1


def test_circuit_breaker_trips_per_identity_and_half_opens():
    cluster = Cluster()  # need the clock before the breaker exists
    breaker = Admission(clock=cluster.clock, threshold=3, cooldown_ns=NS_PER_S)
    cluster.add_machine(SERVER)
    cluster.add_machine(LAPTOP)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, FRED_DN)
    machine = cluster.machine(SERVER)
    server = make_server(
        machine,
        machine.add_user("dthain"),
        network=cluster.network,
        auth=ServerAuth(credential_store=trust),
        limits=breaker,
    )
    acl = Acl()
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    acl.set_entry("hostname:*.nowhere.edu", Rights.parse("rl"))
    server.set_root_acl(acl)
    server.serve()

    fred = connect_fred(cluster, wallet, retry=None)
    identity = f"globus:{FRED_DN}"
    for _ in range(3):  # three consecutive failures trip the circuit
        with pytest.raises(ChirpError) as info:
            fred.stat("/missing")
        assert info.value.errno is Errno.ENOENT
    with pytest.raises(ChirpError) as info:
        fred.stat("/")  # would succeed, but the circuit is open
    assert info.value.errno is Errno.EAGAIN
    assert breaker.is_open(identity)

    health = server.pipeline.stats()["health"]
    assert health["trips"] == 1 and health["rejected"] == 1
    assert health["open"] == [identity]

    # other identities are not degraded
    mallory = ChirpClient.connect(cluster.network, LAPTOP, SERVER)
    mallory.authenticate([HostnameAuthenticator()])
    assert mallory.stat("/").is_dir

    # after the cooldown the circuit half-opens and a success closes it
    cluster.clock.advance(2 * NS_PER_S, "idle")
    assert fred.stat("/").is_dir
    assert not breaker.is_open(identity)
    assert server.pipeline.stats()["health"]["successes"] > 0


def test_strangers_failed_logins_do_not_lock_everyone_out_of_auth():
    cluster, server, wallet = make_world(limits=Admission(threshold=3))
    rogue_ca = CertificateAuthority("Rogue CA")  # the server trusts no such CA
    rogue_store = CredentialStore()
    rogue_store.trust(rogue_ca)
    rogue_wallet = provision_user(rogue_ca, rogue_store, "/O=Rogue/CN=Mallory")
    for _ in range(3):
        stranger = ChirpClient.connect(cluster.network, LAPTOP, SERVER)
        with pytest.raises(ChirpError) as info:
            stranger.authenticate([GlobusAuthenticator(rogue_wallet)])
        assert info.value.errno is Errno.EACCES
    fred = connect_fred(cluster, wallet, retry=None)
    assert fred.whoami() == f"globus:{FRED_DN}"
    assert server.pipeline.stats()["health"]["open"] == []


def test_batch_envelope_is_one_arrival_and_each_frame_one_budget_token():
    cluster, server, wallet = make_world(
        limits=Admission(
            arrival_rate_per_s=1e-9, arrival_burst=2, rate_per_s=1e-9, burst=3
        )
    )
    fred = connect_fred(cluster, wallet, retry=None)  # arrival token 1
    slots = fred.batch([{"op": "stat", "path": "/"}] * 5)  # arrival token 2
    assert [slot["ok"] for slot in slots] == [True, True, True, False, False]
    assert [slot["errno"] for slot in slots[3:]] == [int(Errno.EAGAIN)] * 2
    with pytest.raises(ChirpError) as info:
        fred.stat("/")  # no arrival token left
    assert info.value.errno is Errno.EAGAIN
    assert "server overloaded" in str(info.value)
    assert server.stats.sheds == 1
    quota = server.pipeline.stats()["fastlane"]["quota"]
    assert (quota["admitted"], quota["rejected"]) == (3, 2)


# ---------------------------------------------------------------------- #
# authentication under faults
# ---------------------------------------------------------------------- #


def test_auth_dropped_mid_negotiation_falls_back_to_next_method():
    plan = FaultPlan(ports=(CHIRP_PORT,))
    cluster, _, wallet = make_world(plan)
    client = ChirpClient.connect(cluster.network, LAPTOP, SERVER, retry=RETRY)
    plan.force("drop_after")  # the globus offer's verdict is lost
    principal = client.authenticate(
        [GlobusAuthenticator(wallet), HostnameAuthenticator()]
    )
    # a transport fault is not a credential verdict: the client moved on
    # to the next method on a fresh connection, and both ends agree
    assert principal == f"hostname:{LAPTOP}"
    assert client.principal == principal
    assert client.whoami() == principal


def test_failed_renegotiation_clears_the_stale_principal():
    cluster, _, wallet = make_world()
    fred = connect_fred(cluster, wallet, retry=None)
    assert fred.principal == f"globus:{FRED_DN}"

    rogue_ca = CertificateAuthority("Rogue CA")  # the server trusts no such CA
    rogue_store = CredentialStore()
    rogue_store.trust(rogue_ca)
    rogue_wallet = provision_user(rogue_ca, rogue_store, "/O=Rogue/CN=Fred")
    with pytest.raises(ChirpError):
        fred.authenticate([GlobusAuthenticator(rogue_wallet)])
    assert fred.principal == ""  # never a leftover identity


def test_closed_client_raises_clean_epipe_everywhere():
    cluster, _, wallet = make_world()
    fred = connect_fred(cluster, wallet, retry=None)
    fred.close()
    with pytest.raises(ChirpError) as info:
        fred.stat("/")
    assert info.value.errno is Errno.EPIPE
    with pytest.raises(ChirpError) as info:
        fred.authenticate([GlobusAuthenticator(wallet)])
    assert info.value.errno is Errno.EPIPE


def test_crash_and_reserve_recovers_transparently():
    cluster, server, wallet = make_world()
    fred = connect_fred(cluster, wallet)
    fred.mkdir("/w")
    cluster.crash_server(SERVER, CHIRP_PORT)  # connections AND listener die
    server.serve()  # the operator restarts it
    assert fred.whoami() == f"globus:{FRED_DN}"  # reconnect + re-auth
    assert fred.stats.reconnects >= 1 and fred.stats.reauths >= 1
    assert fred.stat("/w").is_dir  # state survived the restart
