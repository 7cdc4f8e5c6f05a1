"""Property test: bound telemetry handles against the keyword-label path.

A random stream of pipeline operations ``(surface, op, status, identity,
latency_ns)`` runs through the real :class:`TracingInterceptor` (around the
standard stages' denial counting, as the pipeline composes them) and
through :class:`tests.helpers.KeywordRecorder`, the registry the handles
replaced, which still labels the pipeline's series with the identity.
Once that label is summed away the two agree exactly: every counter,
every histogram (buckets and moments), and the readers the rest of the
program uses (``counter_total``, ``histograms_named``, and the
``histogram(name, op=, mode=)`` read of ``profile_microbench``).
"""

from hypothesis import given, settings, strategies as st

from repro.core.telemetry import LatencyStats, Telemetry, TracingInterceptor
from repro.kernel.errno import Errno, err
from repro.kernel.timing import Clock
from tests.helpers import KeywordRecorder, denial_stage, pathless_op

SURFACES = ("syscall", "chirp")
OPS = ("open", "stat", "unlink", "getacl")
#: "error" stands for a non-kernel exception escaping the chain
STATUSES = ("ok", "ok", "EACCES", "EPERM", "ENOENT", "error")
MODES = {"syscall": "traced", "chirp": "direct"}

events = st.lists(
    st.tuples(
        st.sampled_from(SURFACES),
        st.sampled_from(OPS),
        st.sampled_from(STATUSES),
        st.sampled_from([f"globus:/O=Grid/CN=u{i}" for i in range(40)] + [""]),
        st.integers(min_value=0, max_value=10**10),
    ),
    max_size=60,
)


def _drive(stream) -> tuple[Telemetry, KeywordRecorder]:
    clock = Clock()
    telemetry = Telemetry(clock)
    interceptor, stage = TracingInterceptor(telemetry), denial_stage(telemetry)
    reference = KeywordRecorder()
    latency = {}
    for surface, name, status, identity, latency_ns in stream:

        def handler(op, ctx, status=status, latency_ns=latency_ns):
            clock.advance(latency_ns, "test")
            if status == "error":
                raise RuntimeError("not a kernel error")
            if status != "ok":
                raise err(Errno[status], "refused")
            return {}

        op = pathless_op(surface, name, identity or None, handler)
        try:
            # composed as build_pipeline composes them
            interceptor(op, None, lambda op=op: stage.run(op, None))
        except Exception:
            pass
        reference.record_op(surface, name, status, identity or "?", latency_ns)
        # the machine's per-syscall histogram, through a handle bound once
        key = (name, MODES[surface])
        if key not in latency:
            latency[key] = telemetry.histogram("syscall.latency_ns", op=name, mode=key[1])
        latency[key].observe(latency_ns)
        reference.observe("syscall.latency_ns", latency_ns, op=name, mode=key[1])
    return telemetry, reference


@settings(max_examples=60, deadline=None)
@given(events)
def test_handles_record_what_the_keyword_path_recorded_minus_identity(stream):
    telemetry, reference = _drive(stream)
    live = telemetry.counters
    for name in ("pipeline.ops", "pipeline.outcomes", "pipeline.denials"):
        got = {key: value for (n, key), value in live.items() if n == name}
        assert got == reference.counters_without(name, "identity")
    assert telemetry.counter_total("pipeline.ops") == len(stream)

    got_hists = {
        key: hist.snapshot()
        for key, hist in telemetry.histograms_named("pipeline.latency_ns")
    }
    want_hists = {
        key: hist.snapshot()
        for key, hist in reference.histograms_without(
            "pipeline.latency_ns", "identity"
        ).items()
    }
    assert got_hists == want_hists

    for (name, key), hist in reference.histograms.items():
        if name != "syscall.latency_ns":
            continue
        labels = dict(key)
        read = telemetry.histogram(name, op=labels["op"], mode=labels["mode"])
        assert read.snapshot() == hist.snapshot()
        assert LatencyStats.from_histograms(read) == LatencyStats.from_histograms(hist)
