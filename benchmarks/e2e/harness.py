"""The run protocol and the metrics it reports.

One run measures one workload in this process:

1. set-up, repeated ``SETUP_REPEATS`` times on a fresh world each time
   (each includes the workload's untimed warm-up); ``setup_s`` is the
   median;
2. timed rounds of generated ops, each after ``gc.collect()``.  While a
   round runs, a fixed pure-Python calibration loop is sampled every
   ``CAL_INTERVAL_S``; each op's host time is scaled by the samples
   around it, so a machine (or a moment) that runs the loop slower has
   its numbers scaled back to the reference machine's speed;
3. every reply is checked against the workload's model after its round,
   outside the timed region.

The host metrics come from the calm half of the ops (:func:`calm_half`);
their raw (uncalibrated, all ops) values are kept next to them.
``--trace 1`` runs half the rounds untraced and half under
:class:`~.tracing.Tracer` and reports the per-layer split instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

from .tracing import ROOT, Tracer
from .workloads import WORKLOADS, Failure, Op, Workload

#: Seconds one calibration sample takes on the reference machine (the
#: 2-core container the baseline in README.md was measured on).
CAL_REF_S = 0.0035

#: Calibration loop size: about ``CAL_REF_S`` on the reference machine.
CAL_ITERS = 4_000

#: How the workloads' host time follows the loop's: when the loop runs
#: ``k`` times slower, they run about ``k ** CAL_ELASTICITY`` times slower
#: (fitted across all five workloads on the reference machine; a plain
#: ratio over-corrects slow moments).
CAL_ELASTICITY = 0.85

#: Wall seconds between calibration samples while a stretch is timed.
CAL_INTERVAL_S = 0.1

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``Clock.charges`` categories, in report order; any other category is
#: reported under ``other``.
SIM_CATEGORIES = (
    "trap", "switch", "trace", "vfs", "fd", "io",
    "proc", "signal", "compute", "net", "backoff", "other",
)

#: End-to-end metrics: name -> unit.
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_us": "us", "setup_s": "s", "peak_rss_mb": "MiB"}


_CAL_NAME = re.compile(r"[^a-z/]+")


def _cal_loop() -> int:
    """Dict, string, JSON, regex and small-object traffic like the
    simulator's own."""
    table: dict[str, int] = {}
    total = 0
    for i in range(CAL_ITERS):
        key = f"/d{i & 15}/f{i & 63}"
        table[key] = table.get(key, 0) + 1
        total += len(key.split("/")) + len(table)
        if i % 32 == 0:
            message = {"op": "stat", "path": key, "sizes": [i, i + 1, i + 2], "ok": True}
            text = json.dumps(message)
            total += len(json.loads(text)["sizes"]) + len(_CAL_NAME.sub("-", text))
    return total


class Calibrator:
    """Samples the calibration loop every ``CAL_INTERVAL_S`` while a
    stretch runs, from a SIGALRM handler, so the samples see the machine
    as the stretch does.  :meth:`now_ns` is a clock that stops while a
    sample runs; the stretch is timed with it."""

    def __init__(self) -> None:
        #: (``now_ns()`` when taken, ``(CAL_REF_S / sample seconds) ** CAL_ELASTICITY``)
        self.samples: list[tuple[int, float]] = []
        self.paused_ns = 0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        at = self.now_ns()
        start = perf_counter_ns()
        _cal_loop()
        took = perf_counter_ns() - start
        self.paused_ns += took
        self.samples.append((at, (CAL_REF_S * 1e9 / took) ** CAL_ELASTICITY))
        self._busy = False

    def now_ns(self) -> int:
        return perf_counter_ns() - self.paused_ns

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Mean scale of the samples taken during [start, end] and the
        nearest one on either side: host ns times it is reference ns."""
        times = [at for at, _ in self.samples]
        first = max(0, bisect_right(times, start_ns) - 1)
        last = bisect_left(times, end_ns)
        return statistics.fmean(scale for _, scale in self.samples[first : last + 1])

    def __enter__(self) -> "Calibrator":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def timed(fn: Callable[[Calibrator], Any]) -> tuple[float, Calibrator]:
    """Run ``fn(calibrator)`` under calibration: (host seconds excluding
    the samples, the calibrator)."""
    gc.collect()
    with Calibrator() as cal:
        start = cal.now_ns()
        fn(cal)
        elapsed = cal.now_ns() - start
    return elapsed / 1e9, cal


@dataclass
class Timed:
    """One timed op (or set-up): counted ops, host ns and its scale."""

    weight: int
    ns: int
    scale: float
    #: ops with the same key do the same kind of work
    key: tuple = ()


class Checker:
    """Compares every reply with the model's and digests them all."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.blake2b(digest_size=16)
        self.mismatches: list[str] = []
        #: simulated ns the replies report (boxed runs, which have no
        #: shared clock)
        self.sim_ns = 0

    def check(self, op: Op, reply: Any, weight: int) -> None:
        got = self.wl.view(op, reply)
        self.attempted += weight
        self.sim_ns += self.wl.sim_ns(reply)
        self.digest.update(got if isinstance(got, bytes) else repr(got).encode())
        if got != op.expect:
            self.failed += weight
            if len(self.mismatches) < 5:
                self.mismatches.append(
                    f"{op.kind}{op.args!r:.120}: got {got!r:.200}, expected {op.expect!r:.200}"
                )


def run_round(
    wl: Workload, index: int, execute: Callable[[Op], Any], checker: Checker
) -> list[Timed]:
    """One round of ops, each timed and calibrated; the replies are
    checked after the clock stops."""
    ops = wl.make_round(index)
    replies: list[Any] = []
    spans: list[tuple[int, int]] = []

    def body(cal: Calibrator) -> None:
        now = cal.now_ns
        for op in ops:
            start = now()
            try:
                reply = execute(op)
            except Exception as exc:  # a failed op, counted by the checker
                reply = Failure(f"{type(exc).__name__}: {exc}")
            spans.append((start, now()))
            replies.append(reply)

    _seconds, cal = timed(body)
    timings = []
    for op, reply, (start, end) in zip(ops, replies, spans):
        weight = wl.weight(op, reply)
        checker.check(op, reply, weight)
        timings.append(Timed(weight, end - start, cal.scale(start, end), (op.kind, op.who)))
    return timings


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def calm_half(timings: list[Timed]) -> list[Timed]:
    """Of each kind of op, those that ran while the machine was least
    disturbed (highest scale), covering half of that kind's host time.
    Corrections there are small, so their calibrated numbers are the
    steadiest; taking half of every kind keeps the op mix unchanged."""
    kinds: dict[tuple, list[Timed]] = {}
    for t in timings:
        kinds.setdefault(t.key, []).append(t)
    chosen = []
    for group in kinds.values():
        covered, half = 0, sum(t.ns for t in group) / 2
        for t in sorted(group, key=lambda t: -t.scale):
            if covered >= half:
                break
            chosen.append(t)
            covered += t.ns
    return chosen


def rate(timings: list[Timed], calibrated: bool = True) -> float:
    """Counted ops per host second (reference-machine second if calibrated)."""
    ns = sum(t.ns * (t.scale if calibrated else 1) for t in timings)
    return sum(t.weight for t in timings) * 1e9 / ns if ns else 0.0


def latencies_us(timings: list[Timed], calibrated: bool = True) -> list[float]:
    return [t.ns * (t.scale if calibrated else 1) / t.weight / 1e3 for t in timings]


def e2e_metrics(timings: list[Timed], setups: list[Timed]) -> dict[str, tuple[float, float]]:
    """name -> (calibrated, raw)."""
    calm = calm_half(timings)
    return {
        "ops_per_s": (rate(calm), rate(timings, calibrated=False)),
        "op_p50_us": (
            median(latencies_us(calm)),
            median(latencies_us(timings, calibrated=False)),
        ),
        "setup_s": (
            median([t.ns * t.scale / 1e9 for t in setups]),
            median([t.ns / 1e9 for t in setups]),
        ),
        "peak_rss_mb": (peak_rss_mb(),) * 2,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))] if ordered else 0.0


def layer_metrics(
    tracer: Tracer,
    ops: int,
    scale: float,
    charges: dict[str, int],
    cache_delta: tuple[int, int],
    series: int,
) -> dict[str, tuple[float, str]]:
    """The per-layer split of the traced rounds: name -> (value, unit)."""
    layers = tracer.layers

    def self_us(layer: str) -> tuple[float, str]:
        return layers[layer].self_ns * scale / 1e3 / ops, "us"

    def per_op(count: int, unit: str = "count") -> tuple[float, str]:
        return count / ops, unit

    hits, misses = cache_delta
    cache = layers["core.pipeline.cache"]
    scans = cache.count("invalidate_paths")
    auth = layers["chirp.auth"]
    sessions = auth.count("authenticate")
    sim = {category: 0 for category in SIM_CATEGORIES}
    for category, ns in charges.items():
        sim[category if category in sim else "other"] += ns
    out = {
        "interpose.supervisor.self_us_per_op": self_us("interpose.supervisor"),
        "interpose.supervisor.stops_per_op": per_op(
            layers["interpose.supervisor"].count("on_syscall_entry", "on_syscall_exit")
        ),
        "kernel.ptrace.calls_per_op": per_op(sum(layers["kernel.ptrace"].calls.values())),
        "kernel.ptrace.self_us_per_op": self_us("kernel.ptrace"),
        "interpose.iochannel.bytes_per_op": per_op(layers["interpose.iochannel"].amount, "B"),
        "interpose.iochannel.self_us_per_op": self_us("interpose.iochannel"),
        "core.pipeline.runs_per_op": per_op(layers["core.pipeline"].count("run")),
        "core.pipeline.self_us_per_op": self_us("core.pipeline"),
        "core.pipeline.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "core.pipeline.cache_invalidate_us_per_op": self_us("core.pipeline.cache"),
        "core.pipeline.cache_entries_scanned_per_invalidation": (
            cache.amount / scans if scans else 0.0,
            "count",
        ),
        "core.aclfs.checks_per_op": per_op(layers["core.aclfs"].entries),
        "core.aclfs.self_us_per_op": self_us("core.aclfs"),
        "kernel.vfs.resolves_per_op": per_op(layers["kernel.vfs"].count("resolve")),
        "kernel.vfs.self_us_per_op": self_us("kernel.vfs"),
        "interpose.drivers.calls_per_op": per_op(layers["interpose.drivers"].entries),
        "interpose.drivers.self_us_per_op": self_us("interpose.drivers"),
        "kernel.localfs.bytes_per_op": per_op(layers["kernel.localfs"].amount, "B"),
        "kernel.localfs.self_us_per_op": self_us("kernel.localfs"),
        "kernel.machine.kcalls_per_op": per_op(layers["kernel.machine"].count("kcall")),
        "kernel.machine.self_us_per_op": self_us("kernel.machine"),
        "net.rpc.frames_per_op": per_op(layers["net.rpc"].count("encode_message")),
        "net.rpc.bytes_per_op": per_op(layers["net.rpc"].amount, "B"),
        "net.rpc.self_us_per_op": self_us("net.rpc"),
        "net.network.calls_per_op": per_op(layers["net.network"].count("call")),
        "net.network.self_us_per_op": self_us("net.network"),
        "chirp.server.self_us_per_op": self_us("chirp.server"),
        "chirp.client.self_us_per_op": self_us("chirp.client"),
        "chirp.auth.us_per_session": (
            auth.incl_ns.get("authenticate", 0) * scale / 1e3 / sessions if sessions else 0.0,
            "us",
        ),
        "chirp.federation.self_us_per_op": self_us("chirp.federation"),
        "chirp.federation.replica_calls_per_op": per_op(
            tracer.edges.get(("chirp.federation", "chirp.client"), 0)
        ),
        "chirp.federation.route_us_per_op": self_us("chirp.federation.route"),
        "core.telemetry.self_us_per_op": self_us("core.telemetry"),
        "core.telemetry.series": (float(series), "count"),
        "kernel.timing.sim_us_per_op": (sum(sim.values()) / 1e3 / ops, "sim_us"),
        "bench.root_self_us_per_op": self_us(ROOT),
        "bench.self_sum_error_pct": (
            100 * (tracer.self_sum_ns() - tracer.root_ns) / tracer.root_ns if tracer.root_ns else 0.0,
            "%",
        ),
    }
    for category in SIM_CATEGORIES:
        out[f"kernel.timing.sim_ns_per_op.{category}"] = (sim[category] / ops, "sim_ns")
    return out


def measure(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    smoke: bool = False,
    spans: str | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    setups = []
    for _ in range(1 if trace or smoke else SETUP_REPEATS):
        # a new workload object releases the previous world before set-up
        wl = WORKLOADS[name](seed, smoke)
        elapsed, cal = timed(lambda cal: wl.setup())
        setups.append(Timed(1, round(elapsed * 1e9), statistics.fmean(s for _, s in cal.samples)))
    checker = Checker(wl)
    total = wl.round_count(seconds)
    plain_count = max(1, (total + 1) // 2) if trace else total
    clock = wl.clock()
    sim_start = clock.now_ns if clock is not None else 0
    plain: list[Timed] = []
    for index in range(plain_count):
        plain += run_round(wl, index, wl.execute, checker)
    sim_ns = clock.now_ns - sim_start if clock is not None else checker.sim_ns
    plain_ops = sum(t.weight for t in plain)
    values = e2e_metrics(plain, setups)
    detail: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "op": wl.unit,
        "setups": len(setups),
        "rounds": plain_count,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cal_ref_s": CAL_REF_S,
        "scale": sum(t.ns * t.scale for t in plain) / sum(t.ns for t in plain),
        "sim_us_per_op": sim_ns / 1e3 / plain_ops if plain_ops else 0.0,
        "metrics": {
            metric: {"value": value, "raw": raw, "unit": E2E_UNITS[metric]}
            for metric, (value, raw) in values.items()
        },
    }
    metrics: dict[str, dict[str, Any]] = {
        metric: {"value": value, "unit": E2E_UNITS[metric]}
        for metric, (value, _raw) in values.items()
    }
    if trace:
        indices = range(plain_count, max(total, plain_count + 1))
        metrics = trace_rounds(wl, checker, plain, indices, spans)
        detail["per_layer"] = metrics
        detail["traced_rounds"] = len(indices)
    detail.update(
        attempted=checker.attempted,
        failed=checker.failed,
        fail_ratio=checker.failed / checker.attempted if checker.attempted else 1.0,
        digest=checker.digest.hexdigest(),
        mismatches=checker.mismatches,
    )
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return result, detail


def trace_rounds(
    wl: Workload,
    checker: Checker,
    plain: list[Timed],
    indices: range,
    spans: str | None,
) -> dict[str, dict[str, Any]]:
    """Run the traced half of a ``--trace 1`` run; the per-layer metrics."""
    tracer = Tracer(wl.handler_classes())
    clock = wl.clock()
    charges_before = dict(clock.charges) if clock is not None else {}
    cache_before = wl.cache_counts()
    traced: list[Timed] = []
    tracer.install()
    try:
        for index in indices:
            traced += run_round(wl, index, lambda op: tracer.root(wl.execute, op), checker)
    finally:
        tracer.uninstall()
    if spans:
        tracer.dump(spans)
    if clock is not None:
        charges = {
            category: ns - charges_before.get(category, 0)
            for category, ns in clock.charges.items()
            if ns != charges_before.get(category, 0)
        }
    else:
        charges = tracer.boxed_charges()
    cache_after = wl.cache_counts()
    values = layer_metrics(
        tracer,
        sum(t.weight for t in traced),
        sum(t.ns * t.scale for t in traced) / sum(t.ns for t in traced),
        charges,
        (cache_after[0] - cache_before[0], cache_after[1] - cache_before[1]),
        wl.telemetry_series(),
    )
    values["client.op_p99_us"] = (percentile(latencies_us(plain), 99), "us")
    values["bench.trace_overhead_pct"] = (
        100 * (rate(calm_half(plain)) / rate(calm_half(traced)) - 1),
        "%",
    )
    values["bench.cal_s"] = (
        CAL_REF_S / statistics.fmean(t.scale for t in plain + traced) ** (1 / CAL_ELASTICITY),
        "s",
    )
    return {metric: {"value": value, "unit": unit} for metric, (value, unit) in values.items()}


def render(detail: dict) -> str:
    """The human-readable report printed above the result line."""
    lines = [
        f"{detail['workload']}: seed {detail['seed']}, {detail['rounds']} rounds, "
        f"{detail['attempted']} {detail['op']}s checked, {detail['failed']} failed "
        f"(fail_ratio {detail['fail_ratio']:.4g}), digest {detail['digest']}",
        f"  sim_us_per_op {detail['sim_us_per_op']:.6f} sim_us, "
        f"calibration scale {detail['scale']:.3f}",
    ]
    for metric, entry in detail["metrics"].items():
        lines.append(
            f"  {metric:<12} {entry['value']:>14.4f} {entry['unit']:<4} raw {entry['raw']:.4f}"
        )
    for metric, entry in detail.get("per_layer", {}).items():
        lines.append(f"  {metric:<56} {entry['value']:>14.4f} {entry['unit']}")
    lines.extend(f"  mismatch: {text}" for text in detail["mismatches"])
    return "\n".join(lines)


def cli() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short round (tests only)")
    parser.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    args = parser.parse_args()
    result, detail = measure(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        spans=args.spans,
    )
    print(render(detail))
    print(json.dumps(detail))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0
