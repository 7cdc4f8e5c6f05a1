"""The deterministic fault-injection layer: seeded, forced, and scoped."""

import pytest

from repro.kernel.errno import Errno, KernelError
from repro.kernel.timing import Clock, CostModel, NS_PER_MS
from repro.net import Cluster, FaultPlan
from repro.net.faults import ALL_KINDS, mangle_frame
from repro.net.network import Network, Peer
from repro.net.rpc import ProtocolError, decode_message

HOST = "server.example"
CLIENT = "client.example"
PORT = 9000


class Recorder:
    """An echo service that records frames and close events."""

    def __init__(self, peer: Peer):
        self.peer = peer
        self.frames = []
        self.closes = 0

    def handle(self, payload: bytes) -> bytes:
        self.frames.append(payload)
        return b"echo:" + payload

    def on_close(self):
        self.closes += 1


def make_net(plan=None):
    network = Network(clock=Clock(), costs=CostModel())
    network.add_host(HOST)
    network.add_host(CLIENT)
    handlers = []

    def factory(peer):
        handler = Recorder(peer)
        handlers.append(handler)
        return handler

    network.listen(HOST, PORT, factory)
    if plan is not None:
        network.install_faults(plan)
    return network, handlers


# ---------------------------------------------------------------------- #
# forced single faults, one per kind
# ---------------------------------------------------------------------- #


def test_forced_refuse_connect():
    net, _ = make_net(FaultPlan())
    net.faults.force("refuse")
    with pytest.raises(KernelError) as info:
        net.connect(CLIENT, HOST, PORT)
    assert info.value.errno is Errno.ECONNREFUSED
    # the forced fault is one-shot: the next connect goes through
    assert net.connect(CLIENT, HOST, PORT).call(b"hi") == b"echo:hi"


def test_forced_drop_kills_connection_before_server_sees_request():
    net, handlers = make_net(FaultPlan())
    conn = net.connect(CLIENT, HOST, PORT)
    net.faults.force("drop")
    with pytest.raises(KernelError) as info:
        conn.call(b"hi")
    assert info.value.errno is Errno.ECONNRESET
    assert handlers[0].frames == []  # the server never saw it
    assert handlers[0].closes == 1  # identity state was released
    assert conn.closed and conn.broken
    with pytest.raises(KernelError) as info:
        conn.call(b"again")
    assert info.value.errno is Errno.ECONNRESET


def test_forced_drop_after_loses_response_but_server_processed():
    net, handlers = make_net(FaultPlan())
    conn = net.connect(CLIENT, HOST, PORT)
    net.faults.force("drop_after")
    with pytest.raises(KernelError) as info:
        conn.call(b"hi")
    assert info.value.errno is Errno.ECONNRESET
    assert handlers[0].frames == [b"hi"]  # the work WAS done server-side
    assert conn.closed and conn.broken


def test_forced_spike_charges_extra_latency():
    spike = 7 * NS_PER_MS
    net, _ = make_net(FaultPlan(spike_ns=spike))
    conn = net.connect(CLIENT, HOST, PORT)
    conn.call(b"warm")
    baseline = net.clock.now_ns
    conn.call(b"x" * 4)
    plain = net.clock.now_ns - baseline
    net.faults.force("spike")
    baseline = net.clock.now_ns
    conn.call(b"x" * 4)
    assert net.clock.now_ns - baseline == plain + spike


def test_forced_truncate_cuts_the_response_short():
    net, _ = make_net(FaultPlan())
    conn = net.connect(CLIENT, HOST, PORT)
    whole = conn.call(b"payload")
    net.faults.force("truncate")
    cut = conn.call(b"payload")
    assert cut == whole[: len(whole) // 2]


def test_forced_corrupt_mangles_the_request_frame():
    net, handlers = make_net(FaultPlan())
    conn = net.connect(CLIENT, HOST, PORT)
    net.faults.force("corrupt")
    conn.call(b"payload")
    assert handlers[0].frames == [mangle_frame(b"payload")]


def test_mangled_frames_defeat_the_codec():
    from repro.net.rpc import encode_message

    frame = encode_message({"op": "stat", "path": "/"})
    with pytest.raises(ProtocolError):
        decode_message(mangle_frame(frame))


def test_restart_at_ops_breaks_every_live_connection():
    net, handlers = make_net(FaultPlan(restart_at_ops=(3,)))
    a = net.connect(CLIENT, HOST, PORT)
    b = net.connect(CLIENT, HOST, PORT)
    assert a.call(b"1") == b"echo:1"
    assert b.call(b"2") == b"echo:2"
    with pytest.raises(KernelError) as info:
        a.call(b"3")  # the scheduled crash point
    assert info.value.errno is Errno.ECONNRESET
    assert a.closed and b.closed  # the whole server went down
    assert handlers[0].closes == 1 and handlers[1].closes == 1
    # ...but it restarted: the service is still listening
    c = net.connect(CLIENT, HOST, PORT)
    assert c.call(b"4") == b"echo:4"


# ---------------------------------------------------------------------- #
# scoping, determinism, bookkeeping
# ---------------------------------------------------------------------- #


def test_ports_filter_shields_other_services():
    plan = FaultPlan(refuse_rate=1.0, drop_rate=1.0, ports=(4242,))
    net, _ = make_net(plan)
    conn = net.connect(CLIENT, HOST, PORT)  # would refuse if in scope
    assert conn.call(b"hi") == b"echo:hi"
    assert plan.stats.total() == 0


def test_force_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultPlan().force("gremlins")
    assert set(ALL_KINDS) >= {"refuse", "drop", "drop_after", "restart"}


def _stress(seed):
    """A fixed workload under a 30% uniform plan; returns injected counts."""
    net, _ = make_net(FaultPlan.uniform(seed=seed, rate=0.3))
    conn = None
    for i in range(40):
        try:
            if conn is None or conn.closed:
                conn = net.connect(CLIENT, HOST, PORT)
            conn.call(b"frame %d" % i)
        except KernelError:
            pass
    return dict(net.faults.stats.injected)


def test_same_seed_same_fault_sequence():
    first = _stress(seed=7)
    again = _stress(seed=7)
    assert first == again
    assert sum(first.values()) > 0


def test_different_seed_different_fault_sequence():
    assert _stress(seed=7) != _stress(seed=8)


def test_zero_rate_plan_costs_nothing_on_the_clock():
    net_plain, _ = make_net()
    net_gated, _ = make_net(FaultPlan())  # installed but all rates zero

    def drive(net):
        conn = net.connect(CLIENT, HOST, PORT)
        for i in range(10):
            conn.call(b"x" * 100)
        return net.clock.now_ns

    assert drive(net_plain) == drive(net_gated)


def test_on_close_fires_exactly_once_even_when_close_races_break():
    net, handlers = make_net()
    conn = net.connect(CLIENT, HOST, PORT)
    conn.close()
    net.break_connections(HOST)  # already unregistered: no-op
    conn._break()  # belt-and-braces: still exactly once
    assert handlers[0].closes == 1


def test_cluster_crash_server_breaks_connections_and_unbinds_port():
    cluster = Cluster()
    cluster.add_machine(HOST)
    cluster.add_machine(CLIENT)
    holder = []

    def factory(peer):
        handler = Recorder(peer)
        holder.append(handler)
        return handler

    cluster.network.listen(HOST, PORT, factory)
    conn = cluster.network.connect(CLIENT, HOST, PORT)
    assert cluster.crash_server(HOST, PORT) == 1
    assert conn.closed and conn.broken and holder[0].closes == 1
    with pytest.raises(KernelError) as info:
        cluster.network.connect(CLIENT, HOST, PORT)
    assert info.value.errno is Errno.ECONNREFUSED
    # a restart is just listening again
    cluster.network.listen(HOST, PORT, factory)
    assert cluster.network.connect(CLIENT, HOST, PORT).call(b"up") == b"echo:up"


def test_cluster_crash_server_without_port_only_breaks_connections():
    cluster = Cluster()
    cluster.add_machine(HOST)
    cluster.add_machine(CLIENT)
    cluster.network.listen(HOST, PORT, Recorder)
    conn = cluster.network.connect(CLIENT, HOST, PORT)
    assert cluster.crash_server(HOST) == 1
    assert conn.closed
    # the listener survived: clients can come right back
    assert cluster.network.connect(CLIENT, HOST, PORT).call(b"hi") == b"echo:hi"


def test_bind_telemetry_mirrors_every_injection_to_counters():
    """Satellite telemetry: fault.<kind> counters are what stats reads."""
    from repro.core.telemetry import Telemetry

    telemetry = Telemetry(None)
    net, _ = make_net(FaultPlan().bind_telemetry(telemetry))
    telemetry.clock = net.clock
    conn = net.connect(CLIENT, HOST, PORT)
    net.faults.force("spike", "truncate", "spike")
    conn.call(b"a")  # spike
    conn.call(b"b")  # truncate
    conn.call(b"c")  # spike again

    def count(kind):
        return telemetry.counters.get((f"fault.{kind}", ()), 0)

    assert count("spike") == net.faults.stats.injected["spike"] == 2
    assert count("truncate") == net.faults.stats.injected["truncate"] == 1
    assert count("drop") == 0


def test_unbound_plan_still_counts_stats_without_telemetry():
    net, _ = make_net(FaultPlan())
    conn = net.connect(CLIENT, HOST, PORT)
    net.faults.force("spike")
    conn.call(b"a")
    assert net.faults.stats.injected["spike"] == 1  # no crash, no sink


# ---------------------------------------------------------------------- #
# blackouts: scheduled whole-endpoint outages with duration
# ---------------------------------------------------------------------- #

HOST2 = "peer.example"


def make_two_host_net(plan):
    net, handlers = make_net(plan)
    net.add_host(HOST2)
    net.listen(HOST2, PORT, lambda peer: Recorder(peer))
    return net, handlers


def test_blackout_window_darkens_one_host_and_lifts_on_its_own():
    from repro.net import Blackout

    plan = FaultPlan(ports=(PORT,), blackouts=(Blackout(PORT, 2, 5, host=HOST),))
    net, _ = make_two_host_net(plan)
    conn = net.connect(CLIENT, HOST, PORT)
    other = net.connect(CLIENT, HOST2, PORT)
    assert conn.call(b"1") == b"echo:1"  # op 1: before the window
    with pytest.raises(KernelError) as info:
        conn.call(b"2")  # op 2: the window opens, the connection breaks
    assert info.value.errno is Errno.ECONNRESET
    assert conn.closed and conn.broken
    # while dark, even a fresh connect is refused
    with pytest.raises(KernelError) as refused:
        net.connect(CLIENT, HOST, PORT)
    assert refused.value.errno is Errno.ECONNREFUSED
    # the scoped peer on the same port stays up, and its traffic advances
    # the op counter that eventually closes the window
    for payload in (b"3", b"4", b"5"):
        assert other.call(payload) == b"echo:" + payload
    # op counter is now past end_op: the endpoint is back by itself
    back = net.connect(CLIENT, HOST, PORT)
    assert back.call(b"6") == b"echo:6"
    assert plan.stats.injected["blackout"] >= 2  # the break + the refusal


def test_blackout_without_host_darkens_every_endpoint_on_the_port():
    from repro.net import Blackout

    plan = FaultPlan(ports=(PORT,), blackouts=(Blackout(PORT, 1, 3),))
    net, _ = make_two_host_net(plan)
    a = net.connect(CLIENT, HOST, PORT)
    b = net.connect(CLIENT, HOST2, PORT)
    with pytest.raises(KernelError):
        a.call(b"1")
    with pytest.raises(KernelError):
        b.call(b"2")  # port-wide: the other host is just as dark


def test_forced_blackout_denies_exactly_once():
    net, _ = make_net(FaultPlan())
    conn = net.connect(CLIENT, HOST, PORT)
    net.faults.force("blackout")
    with pytest.raises(KernelError) as info:
        conn.call(b"a")
    assert info.value.errno is Errno.ECONNRESET
    again = net.connect(CLIENT, HOST, PORT)
    assert again.call(b"b") == b"echo:b"  # one-shot, no window


def test_blackout_active_is_a_pure_query():
    from repro.net import Blackout

    plan = FaultPlan(ports=(PORT,), blackouts=(Blackout(PORT, 0, 10, host=HOST),))
    net, _ = make_net(plan)
    assert plan.blackout_active(HOST, PORT) is True
    assert plan.blackout_active(HOST2, PORT) is False
    assert plan.stats.total() == 0  # asking injected nothing


def test_blackout_injections_mirror_into_fault_counters():
    from repro.core.telemetry import Telemetry
    from repro.net import Blackout

    telemetry = Telemetry(None)
    plan = FaultPlan(
        ports=(PORT,), blackouts=(Blackout(PORT, 1, 2, host=HOST),)
    ).bind_telemetry(telemetry)
    net, _ = make_net(plan)
    telemetry.clock = net.clock
    conn = net.connect(CLIENT, HOST, PORT)
    with pytest.raises(KernelError):
        conn.call(b"a")
    assert telemetry.counters.get(("fault.blackout", ()), 0) == 1
    assert plan.stats.injected["blackout"] == 1


def test_schedule_blackout_installs_a_silent_plan_when_none_is_active():
    cluster = Cluster()
    cluster.add_machine(HOST)
    assert cluster.network.faults is None
    blackout = cluster.schedule_blackout(PORT, 5, 9, host=HOST)
    plan = cluster.network.faults
    assert plan is not None and plan.blackouts == (blackout,)
    assert plan.applies_to(PORT)
    assert plan.stats.total() == 0  # silent except for the window


def test_schedule_blackout_extends_an_installed_plan_and_its_ports():
    cluster = Cluster()
    cluster.add_machine(HOST)
    plan = FaultPlan(seed=7, ports=(4242,))
    cluster.install_faults(plan)
    blackout = cluster.schedule_blackout(PORT, 5, 9)
    assert cluster.network.faults is plan  # extended, not replaced
    assert blackout in plan.blackouts
    assert plan.applies_to(PORT) and plan.applies_to(4242)
