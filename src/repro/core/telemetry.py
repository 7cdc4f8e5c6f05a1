"""Always-on telemetry for the shared operation pipeline.

The paper's central quantitative claim is an overhead story (Figure 5),
so the reproduction needs first-class measurement: not per-benchmark
timing loops, but one observability layer both entry surfaces feed.
This module provides it, in four pieces:

* :class:`Telemetry` — a metrics registry: labelled counters, gauges,
  and fixed-bucket latency histograms, all stamped from the *simulated*
  clock.  Recording never advances the clock, so instrumentation is
  invisible to the thing being measured: a run with telemetry attached
  spends exactly the same simulated nanoseconds as a bare run.  Hot
  paths bind an instrument once (:meth:`Telemetry.counter`,
  :meth:`Telemetry.histogram`) and record through the handle with one
  add; each metric name holds a bounded number of label sets, the rest
  folding into one counted overflow series.
* :class:`CounterView` — the registry is the store of the counts the
  Chirp layer and the pipeline keep, each event added once; ``stats``
  and ``snapshot()`` read the counters back, so no copy can drift.  An
  owner given no registry counts into a private one that opens no spans.
* :class:`Span` — one timed unit of work in a trace tree.  Spans nest
  through a stack on the owning :class:`Telemetry` (the simulation is
  single-threaded, so stack discipline holds), and a ``trace_id`` can be
  carried across the Chirp wire so a remote ``exec``'s boxed syscalls
  nest under the RPC that caused them.
* :class:`TracingInterceptor` — the pipeline hookup.  Installed at the
  mouth of :func:`repro.core.pipeline.build_pipeline`, it opens a span
  per operation, observes per-surface/per-op latency into the shared
  histograms, and counts ops and their outcomes (ok / errno).  The
  acting identity goes on the span, never on a metric label, so the
  registry does not grow with the number of principals.  Denials are
  counted once, by the pipeline's
  :class:`~repro.core.pipeline.DenialCounter`, whose series keep the
  last denied principal and errno as their exemplar.

Everything a snapshot returns is a fresh copy: callers may mutate the
result freely without corrupting live state (see ``Pipeline.stats``).
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..kernel.errno import KernelError
from ..kernel.timing import NS_PER_US

#: Fixed histogram bucket upper bounds in nanoseconds: geometric, x2 per
#: bucket from 125 ns to ~4.3 s, plus an implicit overflow bucket.  Wide
#: enough for one trapped syscall (~10 us) and a whole RPC with backoff.
DEFAULT_BUCKET_EDGES_NS: tuple[int, ...] = tuple(
    125 * (1 << i) for i in range(26)
)

#: Trace and span ids are process-unique (not per-Telemetry) so the
#: client- and server-side instances on either end of a wire can never
#: mint colliding ids inside one propagated trace.
_TRACE_IDS = itertools.count(1)
_SPAN_IDS = itertools.count(1)

#: Label-set key: a canonical, hashable rendering of **labels.
LabelKey = tuple[tuple[str, str], ...]

#: Most label sets one metric name holds.  Past it, a new label set
#: records into the name's :data:`OVERFLOW_KEY` series, so a cardinality
#: leak shows up as a count there instead of as memory.
MAX_SERIES_PER_NAME = 1024

#: The one series every label set past the cap folds into.
OVERFLOW_KEY: LabelKey = (("overflow", "1"),)


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


@dataclass
class Histogram:
    """A fixed-bucket latency histogram with exact moments.

    ``edges`` are inclusive upper bounds; bucket ``i`` counts values
    ``edges[i-1] < v <= edges[i]`` and one overflow bucket catches the
    rest.  Alongside the buckets the histogram tracks exact count, sum,
    min and max, so the mean is exact and percentiles of a constant
    stream (the common case in a deterministic simulation) are exact
    too; mixed streams interpolate linearly inside the bucket.
    """

    edges: tuple[int, ...] = DEFAULT_BUCKET_EDGES_NS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: int = 0
    min: int = 0
    max: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value_ns: int) -> None:
        value_ns = int(value_ns)
        if self.count == 0:
            self.min = self.max = value_ns
        elif value_ns < self.min:
            self.min = value_ns
        elif value_ns > self.max:
            self.max = value_ns
        self.count += 1
        self.sum += value_ns
        self.counts[bisect_left(self.edges, value_ns)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 < q <= 100), deterministic.

        Exact when every sample is identical; otherwise the bucket
        containing the rank is found and the value interpolated
        linearly between its bounds (clamped to observed min/max).
        """
        if self.count == 0:
            return 0.0
        if self.min == self.max:
            return float(self.min)
        rank = max(1, -(-int(q * self.count) // 100))  # ceil(q% of count)
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower = self.edges[i - 1] if i > 0 else 0
                upper = self.edges[i] if i < len(self.edges) else self.max
                frac = (rank - cumulative) / n
                value = lower + frac * (upper - lower)
                return float(min(max(value, self.min), self.max))
            cumulative += n
        return float(self.max)  # pragma: no cover - rank <= count always hits

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        if other.count == 0:
            return
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different buckets")
        if self.count == 0:
            self.min, self.max = other.min, other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.sum += other.sum
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]

    def snapshot(self) -> dict[str, Any]:
        """A detached copy safe for callers to mutate."""
        return {
            "count": self.count,
            "sum_ns": self.sum,
            "min_ns": self.min,
            "max_ns": self.max,
            "mean_ns": self.mean,
            "p50_ns": self.percentile(50),
            "p90_ns": self.percentile(90),
            "p99_ns": self.percentile(99),
            "buckets": list(self.counts),
            "edges_ns": list(self.edges),
        }


@dataclass(frozen=True)
class LatencyStats:
    """A histogram summarized in microseconds — the benchmarks' unit.

    Built from one or more histograms (multi-call microbenchmarks like
    open-close merge their ops' distributions); percentiles describe
    *individual* calls even when a caller reports a per-iteration sum.
    """

    count: int = 0
    mean_us: float = 0.0
    p50_us: float = 0.0
    p90_us: float = 0.0
    p99_us: float = 0.0

    @classmethod
    def from_histograms(cls, *hists: Histogram) -> "LatencyStats":
        live = [h for h in hists if h.count]
        if not live:
            return cls()
        merged = Histogram(edges=live[0].edges)
        for hist in live:
            merged.merge(hist)
        return cls(
            count=merged.count,
            mean_us=merged.mean / NS_PER_US,
            p50_us=merged.percentile(50) / NS_PER_US,
            p90_us=merged.percentile(90) / NS_PER_US,
            p99_us=merged.percentile(99) / NS_PER_US,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean_us": round(self.mean_us, 4),
            "p50_us": round(self.p50_us, 4),
            "p90_us": round(self.p90_us, 4),
            "p99_us": round(self.p99_us, 4),
        }


@dataclass(slots=True)
class Span:
    """One timed unit of work inside a trace tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str = ""
    surface: str = ""
    identity: str = ""
    start_ns: int = 0
    end_ns: int = 0
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "surface": self.surface,
            "identity": self.identity,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


def format_trace_parent(span: Span) -> str:
    """Render a span as the ``trace`` wire field: ``<trace_id>/<span_id>``."""
    return f"{span.trace_id}/{span.span_id}"


#: A ``trace`` wire field as :func:`format_trace_parent` writes it; the
#: digit runs are bounded so a peer cannot hand over an unbounded id.
_TRACE_PARENT = re.compile(r"t[0-9]{1,20}/s[0-9]{1,20}")


def is_trace_parent(value: Any) -> bool:
    """Could :func:`format_trace_parent` have written ``value``?"""
    return isinstance(value, str) and _TRACE_PARENT.fullmatch(value) is not None


def parse_trace_parent(text: str) -> tuple[str, str]:
    """Split a wire ``trace`` field; tolerant of a bare trace id."""
    trace_id, _, span_id = str(text).partition("/")
    return trace_id, span_id


class _Cell:
    """One counter or gauge series: its value and, for counters that keep
    one, the exemplar recorded with the latest increment."""

    __slots__ = ("value", "exemplar")

    def __init__(self) -> None:
        self.value = 0
        self.exemplar: dict[str, Any] | None = None


class _Handle:
    """One label set of one metric, resolved once.

    The series itself is found on first record (a handle that never
    records never shows in a snapshot) and found again after
    :meth:`Telemetry.reset`, which starts a new epoch; between the two
    every record is one attribute check and one add.
    """

    __slots__ = ("telemetry", "name", "key", "_store", "_new", "_series", "_epoch")

    def __init__(self, telemetry: "Telemetry", name: str, key: LabelKey, store, new) -> None:
        self.telemetry = telemetry
        self.name = name
        self.key = key
        #: the registry's series of this kind, and how to make one
        self._store = store
        self._new = new
        self._series: Any = None
        self._epoch = -1

    def _resolve(self) -> Any:
        t = self.telemetry
        self._series = t._series(self._store, self.name, self.key, self._new)
        self._epoch = t._epoch
        return self._series

    def _peek(self) -> Any:
        """The series this handle records into, without creating it."""
        if self._epoch == self.telemetry._epoch:
            return self._series
        return self.telemetry._series(self._store, self.name, self.key)


class CounterHandle(_Handle):
    """A bound counter: ``inc()`` is one add into the registry."""

    __slots__ = ()

    def inc(self, value: int = 1, exemplar: dict[str, Any] | None = None) -> None:
        """Add ``value``; an ``exemplar`` replaces the series' last one."""
        t = self.telemetry
        if not t.enabled:
            return
        cell = self._series if self._epoch == t._epoch else self._resolve()
        cell.value += value
        if exemplar is not None:
            cell.exemplar = exemplar

    @property
    def value(self) -> int:
        cell = self._peek()
        return cell.value if cell is not None else 0


class CounterView:
    """Read-only counts, read off a telemetry registry on each access.

    Each keyword field is a counter name (its total across label sets) or
    a function of no arguments; assigning a field raises.
    """

    __slots__ = ("_telemetry", "_fields")

    def __init__(self, telemetry: "Telemetry", **fields: "str | Callable[[], Any]") -> None:
        object.__setattr__(self, "_telemetry", telemetry)
        object.__setattr__(self, "_fields", fields)

    def __getattr__(self, name: str) -> Any:
        source = self._fields.get(name)
        if source is None:
            raise AttributeError(name)
        return self._telemetry.counter_total(source) if isinstance(source, str) else source()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{name!r} is read-only: the registry holds the count")

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({inner})"


class HistogramHandle(_Handle):
    """A bound histogram: ``observe()`` goes straight to its series.

    Reads (``count``, ``mean``, ``percentile()``, ``snapshot()``...) are
    those of the series, or of an empty histogram before the first
    observation.
    """

    __slots__ = ()

    def observe(self, value_ns: int) -> None:
        t = self.telemetry
        if not t.enabled:
            return
        hist = self._series if self._epoch == t._epoch else self._resolve()
        hist.observe(value_ns)

    def __getattr__(self, attr: str) -> Any:
        hist = self._peek()
        return getattr(hist if hist is not None else self._new(), attr)


class Telemetry:
    """The metrics registry and tracer for one simulated host (or client).

    All mutating methods are no-ops when ``enabled`` is false, and no
    method ever advances the simulated clock, so attaching telemetry is
    free in simulated time by construction.

    Hot paths bind an instrument once (:meth:`counter`, :meth:`histogram`)
    and keep the handle; :meth:`counter_inc` and :meth:`observe` are the
    cold-path spelling of the same lookup.  Each metric name holds at
    most :data:`MAX_SERIES_PER_NAME` label sets; the rest fold into its
    ``{overflow=1}`` series.
    """

    def __init__(
        self,
        clock=None,
        *,
        enabled: bool = True,
        max_spans: int = 20_000,
        bucket_edges_ns: tuple[int, ...] = DEFAULT_BUCKET_EDGES_NS,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.bucket_edges_ns = tuple(bucket_edges_ns)
        #: name -> label set -> series
        self._counters: dict[str, dict[LabelKey, _Cell]] = {}
        self._gauges: dict[str, dict[LabelKey, _Cell]] = {}
        self._histograms: dict[str, dict[LabelKey, Histogram]] = {}
        #: bumped by :meth:`reset`: a handle resolved in an older epoch
        #: finds its series again on its next record
        self._epoch = 0
        self.spans: deque[Span] = deque(maxlen=max_spans)
        self._stack: list[Span] = []

    # ------------------------------------------------------------------ #
    # clock access
    # ------------------------------------------------------------------ #

    def now_ns(self) -> int:
        return self.clock.now_ns if self.clock is not None else 0

    # ------------------------------------------------------------------ #
    # the registry
    # ------------------------------------------------------------------ #

    def _series(self, store, name: str, key: LabelKey, new=None) -> Any:
        """The series of ``name`` for label set ``key``.

        A label set the name has no room for reads (and, with ``new``,
        records into) the overflow series.  Without ``new`` nothing is
        created and a missing series is ``None``.
        """
        family = store.get(name)
        if family is None:
            if new is None:
                return None
            family = store[name] = {}
        series = family.get(key)
        if series is None:
            if len(family) >= MAX_SERIES_PER_NAME:
                key = OVERFLOW_KEY
                series = family.get(key)
            if series is None and new is not None:
                series = family[key] = new()
        return series

    @staticmethod
    def _flat(store) -> dict[tuple[str, LabelKey], Any]:
        return {
            (name, key): series
            for name, family in store.items()
            for key, series in family.items()
        }

    @property
    def counters(self) -> dict[tuple[str, LabelKey], int]:
        """Every counter series' value by ``(name, label set)``; a copy."""
        return {key: cell.value for key, cell in self._flat(self._counters).items()}

    @property
    def gauges(self) -> dict[tuple[str, LabelKey], float]:
        return {key: cell.value for key, cell in self._flat(self._gauges).items()}

    @property
    def histograms(self) -> dict[tuple[str, LabelKey], Histogram]:
        """Every live histogram by ``(name, label set)``."""
        return self._flat(self._histograms)

    # ------------------------------------------------------------------ #
    # counters and gauges
    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels: Any) -> CounterHandle:
        """Bind one label set of a counter; keep the handle, call ``inc()``."""
        return CounterHandle(self, name, _label_key(labels), self._counters, _Cell)

    def counter_inc(self, name: str, value: int = 1, **labels: Any) -> None:
        if self.enabled:
            self._series(self._counters, name, _label_key(labels), _Cell).value += value

    def counter_total(self, name: str) -> int:
        """Sum of a counter across every label combination."""
        return sum(cell.value for cell in self._counters.get(name, {}).values())

    def counter_by(self, name: str, label: str) -> dict[str, int]:
        """A counter's totals keyed by one label's value, sorted."""
        out: dict[str, int] = {}
        for key, cell in self._counters.get(name, {}).items():
            value = dict(key).get(label)
            if value is not None:
                out[value] = out.get(value, 0) + cell.value
        return dict(sorted(out.items()))

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        if self.enabled:
            self._series(self._gauges, name, _label_key(labels), _Cell).value = value

    def gauge(self, name: str, **labels: Any) -> float:
        cell = self._series(self._gauges, name, _label_key(labels))
        return cell.value if cell is not None else 0.0

    # ------------------------------------------------------------------ #
    # histograms
    # ------------------------------------------------------------------ #

    def histogram(self, name: str, **labels: Any) -> HistogramHandle:
        """Bind one label set of a histogram; keep the handle, call
        ``observe()``, read it like a :class:`Histogram`."""
        return HistogramHandle(
            self, name, _label_key(labels), self._histograms, self._new_histogram
        )

    def _new_histogram(self) -> Histogram:
        return Histogram(edges=self.bucket_edges_ns)

    def observe(self, name: str, value_ns: int, **labels: Any) -> None:
        if self.enabled:
            self._series(
                self._histograms, name, _label_key(labels), self._new_histogram
            ).observe(value_ns)

    def histograms_named(self, name: str) -> Iterator[tuple[LabelKey, Histogram]]:
        yield from self._histograms.get(name, {}).items()

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def start_span(
        self,
        name: str,
        *,
        surface: str = "",
        trace_parent: str = "",
        identity: str = "",
        **attrs: Any,
    ) -> Span | None:
        """Open a span; returns ``None`` when telemetry is disabled.

        Parentage, most specific first: an explicit ``trace_parent``
        (``trace_id/span_id`` off the wire), else the innermost active
        span on this Telemetry, else a fresh trace.
        """
        if not self.enabled:
            return None
        if trace_parent:
            trace_id, parent_id = parse_trace_parent(trace_parent)
        elif self._stack:
            top = self._stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            trace_id, parent_id = f"t{next(_TRACE_IDS):06d}", ""
        # positional, in field order; ``attrs`` is this call's own dict
        span = Span(
            name, trace_id, f"s{next(_SPAN_IDS):06d}", parent_id, surface,
            identity, self.now_ns(), 0, "ok", attrs,
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span | None, status: str = "ok") -> None:
        if span is None or not self.enabled:
            return
        span.end_ns = self.now_ns()
        span.status = status
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif any(open_span is span for open_span in stack):
            # pop through (tolerates a caller that leaked a child span)
            while stack[-1] is not span:
                stack.pop()
            stack.pop()
        self.spans.append(span)

    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def new_trace_parent(self, name: str, **attrs: Any) -> Span | None:
        """Start a root-capable span destined for wire propagation."""
        return self.start_span(name, **attrs)

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def spans_in_trace(self, trace_id: str) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    # ------------------------------------------------------------------ #
    # snapshot / reset
    # ------------------------------------------------------------------ #

    def snapshot(self, *, spans: int | None = 200) -> dict[str, Any]:
        """A fully detached, JSON-ready copy of everything recorded.

        ``spans`` bounds how many (most recent) finished spans are
        included; ``None`` includes them all.  Mutating the returned
        structure never touches live state.
        """
        span_list = list(self.spans) if spans != 0 else []
        if spans is not None:
            span_list = span_list[-spans:]
        counters = sorted(self._flat(self._counters).items())
        return {
            "enabled": self.enabled,
            "clock_ns": self.now_ns(),
            "counters": {
                _render_key(name, key): cell.value for (name, key), cell in counters
            },
            "exemplars": {
                _render_key(name, key): dict(cell.exemplar)
                for (name, key), cell in counters
                if cell.exemplar is not None
            },
            "gauges": {
                _render_key(name, key): value
                for (name, key), value in sorted(self.gauges.items())
            },
            "histograms": {
                _render_key(name, key): hist.snapshot()
                for (name, key), hist in sorted(self.histograms.items())
            },
            "spans": [span.to_dict() for span in span_list],
        }

    def reset(self) -> None:
        """Forget everything recorded; bound handles stay usable."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._epoch += 1
        self.spans.clear()
        self._stack.clear()

    def fork(self) -> "Telemetry":
        """A detached instance for a forked world.

        Same configuration (enabled flag, span capacity, buckets), zero
        recorded state, and — critically — an empty span stack: the first
        span opened in the fork starts a *new root trace* instead of
        silently nesting under whatever span the parent world had open.
        The caller binds the fork's clock (``Machine.fork`` does).
        """
        return Telemetry(
            None,
            enabled=self.enabled,
            max_spans=self.spans.maxlen or 20_000,
            bucket_edges_ns=self.bucket_edges_ns,
        )


class HandleCache:
    """The handles of one kind (``"counter"`` or ``"histogram"``) that a
    site records into, each bound on first use.

    Keyed by metric name and the values of the site's labels (``""``
    leaves a label off), and bound again when the site's telemetry is
    swapped for another, so the site passes whatever telemetry it holds.
    """

    __slots__ = ("kind", "labels", "_handles")

    def __init__(self, kind: str, *labels: str) -> None:
        self.kind = kind
        self.labels = labels
        self._handles: dict[tuple[str, ...], Any] = {}

    def get(self, telemetry: Telemetry, name: str, *values: str) -> Any:
        key = (name, *values)
        handle = self._handles.get(key)
        if handle is None or handle.telemetry is not telemetry:
            labels = {label: v for label, v in zip(self.labels, values) if v}
            handle = getattr(telemetry, self.kind)(name, **labels)
            self._handles[key] = handle
        return handle


def instrument(machine) -> Telemetry:
    """Attach a fresh :class:`Telemetry` to a machine's clock.

    Convenience for benchmarks and the CLI: the kernel never imports this
    module; it only duck-reads ``machine.telemetry``.
    """
    telemetry = Telemetry(machine.clock)
    machine.telemetry = telemetry
    return telemetry


class _OpInstruments:
    """The handles one ``(surface, op)`` records into, bound once."""

    __slots__ = ("span_name", "latency", "ops", "outcomes", "labels")

    def __init__(self, telemetry: Telemetry, surface: str, op: str) -> None:
        self.span_name = f"{surface}:{op}"
        self.labels = {"surface": surface, "op": op}
        self.latency = telemetry.histogram("pipeline.latency_ns", **self.labels)
        self.ops = telemetry.counter("pipeline.ops", **self.labels)
        #: status -> its ``pipeline.outcomes`` handle, bound on first sight
        self.outcomes: dict[str, CounterHandle] = {}

    def outcome(self, status: str) -> CounterHandle:
        handle = self.outcomes.get(status)
        if handle is None:
            handle = self.outcomes[status] = self.ops.telemetry.counter(
                "pipeline.outcomes", status=status, **self.labels
            )
        return handle


class TracingInterceptor:
    """Pipeline-mouth interceptor: spans + latency histograms + outcomes.

    Installed first by :func:`~repro.core.pipeline.build_pipeline`, so
    its span brackets the whole chain (identity gate, guards, reference
    monitor, handler) and its histogram records the operation's full
    pipeline latency.  Wire-carried trace parents (stashed by the Chirp
    server under ``op.scratch['trace_parent']``) reparent the span onto
    the caller's trace; otherwise nesting follows the active-span stack,
    which is how a remote ``exec``'s boxed syscalls end up under the RPC
    span that spawned them.

    Metrics are labelled by surface and op only: the acting identity
    goes on the span.  Denials are the chain's
    :class:`~repro.core.pipeline.DenialCounter`'s to count.
    """

    #: scratch slot surfaces use to hand over a wire trace parent
    SCRATCH_KEY = "trace_parent"

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        #: (surface, op) -> its bound handles, for ``_bound_to`` only
        self._instruments: dict[tuple[str, str], _OpInstruments] = {}
        self._bound_to: Telemetry | None = None

    def __call__(self, op, ctx, proceed):
        t = self.telemetry
        if t is None or not t.enabled:
            return proceed()
        if t is not self._bound_to:
            self._instruments, self._bound_to = {}, t
        key = (op.surface, op.name)
        inst = self._instruments.get(key)
        if inst is None:
            inst = self._instruments[key] = _OpInstruments(t, *key)
        span = t.start_span(
            inst.span_name,
            surface=op.surface,
            trace_parent=op.scratch.pop(self.SCRATCH_KEY, ""),
        )
        status = "ok"
        try:
            return proceed()
        except KernelError as exc:
            status = exc.errno.name
            raise
        except BaseException:
            status = "error"
            raise
        finally:
            span.identity = op.identity or "?"
            t.end_span(span, status=status)
            inst.latency.observe(span.duration_ns)
            inst.ops.inc()
            inst.outcome(status).inc()
