"""The telemetry layer: histograms, spans, snapshots, and zero overhead.

The observability tentpole's contract in four parts: bucket math is
exact and deterministic; spans nest (and reparent across a wire trace
id); every snapshot is a detached copy; and attaching telemetry costs
*zero simulated time*, so instrumented runs are byte-identical in the
clock dimension to bare ones.
"""

import pytest

from repro.core.box import IdentityBox
from repro.core.pipeline import Admission
from repro.core.telemetry import (
    DEFAULT_BUCKET_EDGES_NS,
    MAX_SERIES_PER_NAME,
    OVERFLOW_KEY,
    Histogram,
    LatencyStats,
    Telemetry,
    TracingInterceptor,
    format_trace_parent,
    instrument,
    parse_trace_parent,
)
from repro.kernel.errno import Errno, KernelError, err
from repro.kernel.machine import Machine
from repro.kernel.timing import Clock
from tests.helpers import denial_stage, pathless_op, run_calls


# -- bucket edges ------------------------------------------------------------- #


def test_default_bucket_edges_are_geometric_from_125ns():
    edges = DEFAULT_BUCKET_EDGES_NS
    assert edges[0] == 125
    assert len(edges) == 26
    for prev, cur in zip(edges, edges[1:]):
        assert cur == 2 * prev
    assert edges[-1] > 4_000_000_000  # wide enough for a whole RPC w/ backoff


def test_observation_lands_in_the_inclusive_upper_bound_bucket():
    hist = Histogram()
    hist.observe(125)  # exactly the first edge: bucket 0
    hist.observe(126)  # just past it: bucket 1
    hist.observe(250)  # exactly the second edge: bucket 1
    assert hist.counts[0] == 1
    assert hist.counts[1] == 2


def test_overflow_bucket_catches_values_past_the_last_edge():
    hist = Histogram()
    hist.observe(DEFAULT_BUCKET_EDGES_NS[-1] + 1)
    assert hist.counts[-1] == 1
    assert len(hist.counts) == len(DEFAULT_BUCKET_EDGES_NS) + 1


# -- moments and percentiles -------------------------------------------------- #


def test_constant_stream_percentiles_are_exact():
    hist = Histogram()
    for _ in range(1000):
        hist.observe(14_070)  # a boxed getpid in the cost model
    assert hist.mean == 14_070.0
    for q in (50, 90, 99, 100):
        assert hist.percentile(q) == 14_070.0


def test_mixed_stream_percentiles_are_bounded_and_monotone():
    hist = Histogram()
    for value in (1_000, 2_000, 4_000, 400_000):
        for _ in range(25):
            hist.observe(value)
    quantiles = [hist.percentile(q) for q in (50, 90, 99)]
    assert quantiles == sorted(quantiles)
    for q in quantiles:
        assert hist.min <= q <= hist.max
    assert hist.percentile(99) > hist.percentile(50)


def test_empty_histogram_is_all_zero():
    hist = Histogram()
    assert hist.count == 0 and hist.mean == 0.0 and hist.percentile(50) == 0.0


def test_merge_folds_counts_and_rejects_mismatched_edges():
    a, b = Histogram(), Histogram()
    a.observe(100)
    b.observe(1_000_000)
    a.merge(b)
    assert a.count == 2 and a.min == 100 and a.max == 1_000_000
    alien = Histogram(edges=(1, 2, 3))
    alien.observe(2)
    with pytest.raises(ValueError):
        a.merge(alien)


def test_latency_stats_merges_histograms_into_microseconds():
    open_hist, close_hist = Histogram(), Histogram()
    for _ in range(10):
        open_hist.observe(24_000)  # 24 us
        close_hist.observe(26_000)  # 26 us
    stats = LatencyStats.from_histograms(open_hist, close_hist)
    assert stats.count == 20
    assert stats.mean_us == pytest.approx(25.0)
    assert stats.p50_us <= stats.p99_us
    assert LatencyStats.from_histograms(Histogram()).count == 0


# -- counters, labels, spans -------------------------------------------------- #


def test_counters_are_per_label_set_with_a_cross_label_total():
    t = Telemetry()
    t.counter_inc("ops", op="open")
    t.counter_inc("ops", op="open")
    t.counter_inc("ops", op="close")
    assert t.counter("ops", op="open").value == 2
    assert t.counter("ops", op="close").value == 1
    assert t.counter("ops", op="stat").value == 0
    assert t.counter_total("ops") == 3


def test_spans_nest_through_the_active_stack():
    clock = Clock()
    t = Telemetry(clock)
    outer = t.start_span("rpc:exec")
    clock.advance(1_000, "test")
    inner = t.start_span("syscall:open")
    clock.advance(500, "test")
    t.end_span(inner)
    t.end_span(outer)
    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == ""
    assert inner.duration_ns == 500
    assert outer.duration_ns == 1_500
    assert [s.name for s in t.spans_in_trace(outer.trace_id)] == [
        "syscall:open",
        "rpc:exec",
    ]


def test_wire_trace_parent_reparents_across_telemetry_instances():
    client, server = Telemetry(), Telemetry()
    rpc = client.start_span("rpc:exec")
    wire = format_trace_parent(rpc)
    assert parse_trace_parent(wire) == (rpc.trace_id, rpc.span_id)
    remote = server.start_span("chirp:exec", trace_parent=wire)
    server.end_span(remote)
    client.end_span(rpc)
    assert remote.trace_id == rpc.trace_id
    assert remote.parent_id == rpc.span_id
    assert remote.span_id != rpc.span_id  # ids are process-unique


# -- snapshots are detached copies -------------------------------------------- #


def test_mutating_a_telemetry_snapshot_leaves_live_state_intact():
    t = Telemetry(Clock())
    t.counter_inc("ops", op="open")
    t.observe("lat", 1_000, op="open")
    t.end_span(t.start_span("syscall:open"))
    snap = t.snapshot()
    snap["counters"].clear()
    snap["histograms"]["lat{op=open}"]["buckets"].clear()
    snap["spans"].clear()
    assert t.counter("ops", op="open").value == 1
    assert t.histogram("lat", op="open").count == 1
    assert len(t.spans) == 1
    assert t.snapshot()["counters"] == {"ops{op=open}": 1}


def test_mutating_a_breaker_snapshot_leaves_the_breaker_intact():
    clock = Clock()
    breaker = Admission(clock=clock, threshold=1, cooldown_ns=10**9)
    op_ctx = type("Op", (), {"identity": "Visitor", "name": "open", "spec": None})()

    def failing():
        raise err(Errno.ENOENT, "no such file")

    with pytest.raises(KernelError):
        breaker(op_ctx, None, failing)
    before = breaker.snapshot()["health"]
    assert before["open"] == ["Visitor"] and before["trips"] == 1
    # vandalize the snapshot every way a caller could
    before["open"].clear()
    before["trips"] = 0
    before["failures"] = -99
    after = breaker.snapshot()["health"]
    assert after["open"] == ["Visitor"]
    assert after["trips"] == 1 and after["failures"] == 1
    assert breaker.is_open("Visitor")


# -- disabled telemetry: records nothing, costs nothing ----------------------- #


def test_disabled_telemetry_records_nothing():
    t = Telemetry(enabled=False)
    t.counter_inc("ops")
    t.gauge_set("depth", 3.0)
    t.observe("lat", 1_000)
    assert t.start_span("x") is None
    t.end_span(None)
    assert not t.counters and not t.gauges and not t.spans
    assert t.histogram("lat").count == 0


def _boxed_clock_ns(telemetry_mode: str) -> tuple[int, Telemetry | None]:
    """Simulated ns for a fixed boxed workload under one telemetry mode."""
    machine = Machine()
    telemetry = None
    if telemetry_mode == "enabled":
        telemetry = instrument(machine)
    elif telemetry_mode == "disabled":
        telemetry = instrument(machine)
        telemetry.enabled = False
    alice = machine.add_user("alice")
    box = IdentityBox(machine, alice, "Visitor")
    from repro.kernel.fdtable import OpenFlags

    run_calls(
        [("open", "f.txt", OpenFlags.O_WRONLY | OpenFlags.O_CREAT, 0o644),
         ("getpid",)],
        machine=machine,
        box=box,
    )
    return machine.clock.now_ns, telemetry


def test_telemetry_adds_zero_simulated_time():
    bare, _ = _boxed_clock_ns("none")
    enabled, enabled_t = _boxed_clock_ns("enabled")
    disabled, disabled_t = _boxed_clock_ns("disabled")
    assert bare == enabled == disabled
    # and the enabled run actually measured the workload...
    assert enabled_t.counter_total("pipeline.ops") > 0
    assert enabled_t.histogram("syscall.latency_ns", op="getpid", mode="traced").count == 1
    # ...while the disabled one stayed empty
    assert disabled_t.counter_total("pipeline.ops") == 0
    assert not disabled_t.spans


def test_fork_detaches_lineage_and_state():
    """A forked Telemetry starts a new root trace with zero recorded state."""
    parent = Telemetry(Clock())
    parent.counter_inc("pipeline.ops", 5)
    outer = parent.start_span("outer")

    child = parent.fork()
    assert child.enabled == parent.enabled
    assert child.counter_total("pipeline.ops") == 0
    assert not child.spans

    # a span opened on the fork roots a fresh trace — it must not nest
    # under the parent's still-open span
    child_span = child.start_span("forked-op")
    assert child_span.trace_id != outer.trace_id
    assert child_span.parent_id == ""
    child.end_span(child_span)
    parent.end_span(outer)
    # recording stays fully separate in both directions
    assert parent.spans_named("forked-op") == []
    assert child.spans_named("outer") == []


# -- bound handles ------------------------------------------------------------ #


def test_a_bound_handle_records_into_the_series_the_keyword_path_reads():
    t = Telemetry()
    opens = t.counter("ops", op="open")
    opens.inc()
    opens.inc(2)
    t.counter_inc("ops", op="open")
    assert opens.value == 4 == t.counter("ops", op="open").value
    lat = t.histogram("lat", op="open")
    lat.observe(1_000)
    t.observe("lat", 3_000, op="open")
    assert lat.count == 2 and lat.sum == 4_000
    assert t.snapshot()["histograms"]["lat{op=open}"]["count"] == 2


def test_a_handle_that_never_records_leaves_no_series():
    t = Telemetry()
    t.counter("ops", op="open")
    t.histogram("lat", op="open")
    assert t.counters == {} and t.histograms == {}
    assert t.histogram("lat", op="open").count == 0


def test_handles_survive_reset_and_follow_the_enabled_flag():
    t = Telemetry()
    ops, lat = t.counter("ops"), t.histogram("lat")
    ops.inc(5)
    lat.observe(100)
    t.reset()
    assert ops.value == 0 and lat.count == 0 and t.counters == {}
    ops.inc()
    lat.observe(200)
    assert t.counters == {("ops", ()): 1}
    assert t.histogram("lat").max == 200 and t.histogram("lat").count == 1
    t.enabled = False
    ops.inc()
    lat.observe(300)
    assert ops.value == 1 and lat.count == 1
    t.enabled = True
    ops.inc()
    assert t.counter_total("ops") == 2


def test_handles_stay_with_their_own_registry_across_fork():
    parent = Telemetry(Clock())
    ops = parent.counter("pipeline.ops", surface="chirp", op="stat")
    ops.inc()
    child = parent.fork()
    ops.inc()
    child.counter("pipeline.ops", surface="chirp", op="stat").inc(10)
    assert parent.counter_total("pipeline.ops") == 2
    assert child.counter_total("pipeline.ops") == 10


def test_label_sets_past_the_cap_fold_into_one_counted_overflow_series():
    t = Telemetry()
    for i in range(MAX_SERIES_PER_NAME):
        t.counter("ops", op=f"op{i}").inc()
    extra = t.counter("ops", op="one-too-many")
    extra.inc(3)
    t.counter_inc("ops", op="another", value=4)
    t.observe("lat", 7, op="x")  # another name has its own room
    counters = t.counters
    assert len(counters) == MAX_SERIES_PER_NAME + 1
    assert counters[("ops", OVERFLOW_KEY)] == 7
    assert ("ops", (("op", "one-too-many"),)) not in counters
    assert t.snapshot()["counters"]["ops{overflow=1}"] == 7
    assert t.counter_total("ops") == MAX_SERIES_PER_NAME + 7
    assert extra.value == 7  # a folded handle reads the series it adds to
    assert t.histogram("lat", op="x").count == 1


def _refuse(op, ctx):
    raise err(Errno.EACCES, "not on the ACL")


def test_ten_thousand_denied_principals_leave_one_series_and_one_exemplar():
    t = Telemetry(Clock())
    # composed as build_pipeline composes them: tracing outermost, then
    # the standard stages, whose denial counter is the one place a
    # denial is counted
    interceptor, stage = TracingInterceptor(t), denial_stage(t)
    for i in range(10_000):
        op = pathless_op("chirp", "mkdir", f"globus:/O=Grid/CN=user{i:05d}", _refuse)
        with pytest.raises(KernelError):
            interceptor(op, None, lambda: stage.run(op, None))
    snap = t.snapshot(spans=0)
    denials = {k: v for k, v in snap["counters"].items() if k.startswith("pipeline.denials")}
    assert denials == {"pipeline.denials{errno=EACCES,op=mkdir,surface=chirp}": 10_000}
    assert snap["exemplars"] == {
        "pipeline.denials{errno=EACCES,op=mkdir,surface=chirp}": {
            "identity": "globus:/O=Grid/CN=user09999",
            "errno": "EACCES",
        }
    }
    assert len(snap["counters"]) + len(snap["histograms"]) == 4
    # the identity is still on every span
    assert t.spans[-1].identity == "globus:/O=Grid/CN=user09999"
