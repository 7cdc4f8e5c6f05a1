"""Deterministic fault injection for the simulated network.

The paper's Chirp deployment lives on a wide-area grid where connections
stall, peers vanish mid-authentication, and servers restart (§4).  The
reproduction's network is perfectly reliable unless a :class:`FaultPlan`
is installed on it; the plan then injects, per connection attempt and per
request/response exchange:

* **refuse** — the connect itself fails with ``ECONNREFUSED``,
* **drop** — the connection dies before the server sees the request,
* **drop_after** — the server processes the request but the response is
  lost and the connection dies (the case idempotency keys exist for),
* **spike** — the exchange is charged extra simulated latency,
* **truncate** — the response frame is cut short (garbage at the client),
* **corrupt** — the request frame is mangled before the server parses it,
* **restart** — at scheduled op counts, every live connection to the
  service breaks at once, as if the whole server crashed and restarted,
* **blackout** — a whole endpoint refuses *everything* for a scheduled
  op-count window: connects are refused, live connections break on their
  next call.  Unlike ``restart`` (one instantaneous crash) a blackout
  has *duration*, which is what shard-death drills need — the service is
  dark for the window and comes back by itself when it closes.

Every decision is drawn from an RNG seeded on ``(plan seed, fault kind,
draw counter, simulated clock)``, so a given seed produces the same fault
sequence on every run of the same (deterministic) workload: failures are
reproducible, which is what makes them debuggable and CI-safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.telemetry import CounterView, Telemetry
from ..kernel.timing import Clock, NS_PER_MS

#: The injectable fault kinds, in the order they are consulted per call.
KIND_REFUSE = "refuse"
KIND_DROP = "drop"
KIND_DROP_AFTER = "drop_after"
KIND_SPIKE = "spike"
KIND_TRUNCATE = "truncate"
KIND_CORRUPT = "corrupt"
KIND_RESTART = "restart"
KIND_BLACKOUT = "blackout"

ALL_KINDS = (
    KIND_REFUSE,
    KIND_DROP,
    KIND_DROP_AFTER,
    KIND_SPIKE,
    KIND_TRUNCATE,
    KIND_CORRUPT,
    KIND_RESTART,
    KIND_BLACKOUT,
)


@dataclass(frozen=True)
class Blackout:
    """One scheduled whole-endpoint outage.

    The window is measured on the plan's global op counter (the same
    counter ``restart_at_ops`` uses): the endpoint is dark while
    ``start_op <= ops_seen < end_op``.  ``host`` empty means every host
    serving ``port`` — a port-wide outage; naming a host scopes the
    blackout to that one endpoint, which is how a single federation
    shard dies while its replica peers (same port, different hosts)
    stay up.
    """

    port: int
    start_op: int
    end_op: int
    host: str = ""

    def covers(self, host: str, port: int, ops_seen: int) -> bool:
        return (
            port == self.port
            and (not self.host or host == self.host)
            and self.start_op <= ops_seen < self.end_op
        )


class _FaultCounts(CounterView):
    """A plan's ``stats``: how many faults of each kind it has injected."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.injected.values())


def mangle_frame(frame: bytes) -> bytes:
    """Deterministically wreck a frame so no codec can parse it."""
    return b"\xff" + frame[: len(frame) // 2]


@dataclass
class FaultPlan:
    """A seeded, reproducible schedule of network faults.

    Rates are independent per-event probabilities in ``[0, 1]``.  The
    optional ``ports`` filter restricts injection to the listed server
    ports (so e.g. catalog traffic can stay clean while Chirp traffic is
    stressed).  ``restart_at_ops`` lists global call counts at which the
    server being called crashes and instantly restarts: all of its live
    connections break, but the service keeps listening.
    """

    seed: int = 0
    refuse_rate: float = 0.0
    drop_rate: float = 0.0
    drop_after_rate: float = 0.0
    spike_rate: float = 0.0
    spike_ns: int = 50 * NS_PER_MS
    truncate_rate: float = 0.0
    corrupt_rate: float = 0.0
    restart_at_ops: tuple[int, ...] = ()
    #: scheduled whole-endpoint outages (see :class:`Blackout`)
    blackouts: tuple[Blackout, ...] = ()
    ports: tuple[int, ...] | None = None
    #: where injected faults are counted, one ``fault.<kind>`` counter per
    #: kind, so observers (the fuzzer's coverage signal, ``repro
    #: metrics``) read fault activity off telemetry; ``None`` counts into
    #: a private registry only :attr:`stats` reads
    telemetry: Telemetry | None = field(default=None, repr=False, compare=False)
    _forced: list[str] = field(default_factory=list)
    _draws: int = 0
    _ops_seen: int = 0
    #: kind -> its ``fault.<kind>`` counter; both bound by :meth:`bind_telemetry`
    _counters: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    stats: _FaultCounts | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bind_telemetry(self.telemetry)

    @classmethod
    def uniform(cls, seed: int, rate: float, **overrides) -> "FaultPlan":
        """The standard stress plan: every fault kind at one rate."""
        return cls(
            seed=seed,
            refuse_rate=rate,
            drop_rate=rate,
            drop_after_rate=rate,
            spike_rate=rate,
            truncate_rate=rate,
            corrupt_rate=rate,
            **overrides,
        )

    # ------------------------------------------------------------------ #
    # decision drawing
    # ------------------------------------------------------------------ #

    def applies_to(self, port: int) -> bool:
        return self.ports is None or port in self.ports

    def bind_telemetry(self, telemetry: Telemetry | None) -> "FaultPlan":
        """Count injected faults into ``telemetry`` (a private registry
        when ``None``) from now on; :attr:`stats`, a read-only view of
        the ``fault.<kind>`` counters, reads the same registry."""
        self.telemetry = telemetry
        registry = telemetry if telemetry is not None else Telemetry()
        counters = {kind: registry.counter(f"fault.{kind}") for kind in ALL_KINDS}
        self._counters = counters
        self.stats = _FaultCounts(
            registry,
            injected=lambda: {
                kind: handle.value for kind, handle in counters.items() if handle.value
            },
        )
        return self

    def _record(self, kind: str) -> None:
        self._counters[kind].inc()

    def force(self, *kinds: str) -> None:
        """Queue one-shot faults consumed at the next matching decision.

        Lets tests trigger a specific fault deterministically without
        tuning rates: ``plan.force("drop_after")`` fires exactly once.
        """
        for kind in kinds:
            if kind not in ALL_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            self._forced.append(kind)

    def _roll(self, kind: str, rate: float, clock: Clock) -> bool:
        if kind in self._forced:
            self._forced.remove(kind)
            self._record(kind)
            return True
        if rate <= 0.0:
            return False
        self._draws += 1
        rng = random.Random(f"{self.seed}:{kind}:{self._draws}:{clock.now_ns}")
        if rng.random() < rate:
            self._record(kind)
            return True
        return False

    def refuse_connect(self, clock: Clock) -> bool:
        return self._roll(KIND_REFUSE, self.refuse_rate, clock)

    def drop_request(self, clock: Clock) -> bool:
        return self._roll(KIND_DROP, self.drop_rate, clock)

    def drop_response(self, clock: Clock) -> bool:
        return self._roll(KIND_DROP_AFTER, self.drop_after_rate, clock)

    def latency_spike(self, clock: Clock) -> int:
        """Extra latency to charge this exchange (0 when not spiked)."""
        if self._roll(KIND_SPIKE, self.spike_rate, clock):
            return self.spike_ns
        return 0

    def truncate_response(self, clock: Clock) -> bool:
        return self._roll(KIND_TRUNCATE, self.truncate_rate, clock)

    def corrupt_request(self, clock: Clock) -> bool:
        return self._roll(KIND_CORRUPT, self.corrupt_rate, clock)

    def due_restart(self) -> bool:
        """Advance the global op counter; true at scheduled crash points."""
        if KIND_RESTART in self._forced:
            self._forced.remove(KIND_RESTART)
            self._record(KIND_RESTART)
            return True
        self._ops_seen += 1
        if self._ops_seen in self.restart_at_ops:
            self._record(KIND_RESTART)
            return True
        return False

    def blackout_active(self, host: str, port: int) -> bool:
        """Is ``host:port`` inside a scheduled outage window right now?

        Pure query — no recording, no counter advance — so routing layers
        can ask without perturbing the fault schedule.
        """
        return any(b.covers(host, port, self._ops_seen) for b in self.blackouts)

    def blackout_denies(self, host: str, port: int) -> bool:
        """Deny one connect/call to a blacked-out endpoint (recorded).

        A forced ``blackout`` (see :meth:`force`) denies the next
        matching decision exactly once, window or no window.
        """
        if KIND_BLACKOUT in self._forced:
            self._forced.remove(KIND_BLACKOUT)
            self._record(KIND_BLACKOUT)
            return True
        if self.blackout_active(host, port):
            self._record(KIND_BLACKOUT)
            return True
        return False
