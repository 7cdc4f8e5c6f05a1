"""The shared operation pipeline: one choke point for both entry surfaces.

Every guarded operation — a syscall trapped inside an identity box (§3,
Figure 4a) or a Chirp RPC from an authenticated principal (§4) — flows
through one :class:`Pipeline` to the operation's registered handler.
:func:`build_pipeline` composes the standard stages once, into one
:class:`Enforcement`, in this order; the bracketed stages are present
only when the caller supplies them:

1. [:class:`~repro.core.telemetry.TracingInterceptor`] — the op's span
   and latency histogram, bracketing the whole chain,
2. denial counting — each EACCES/EPERM refusal counted once, into
   ``pipeline.denials`` by the :class:`DenialCounter` (read back by
   ``Supervisor.denials`` and the Chirp server's ``stats.denials``),
3. the identity gate — resolves *who* is acting (the box member's
   identity; the connection's principal, refusing unauthenticated calls),
4. [:class:`Admission`] — the per-identity op budget and circuit
   breaker, refusing with EAGAIN before any policy work is spent,
5. [:class:`ReadCache`] — memoized results of read-only ops, invalidated
   by the mutations passing through,
6. the ACL-file guard — shields the per-directory ACL file, which is
   reachable only through getacl/setacl,
7. the reference monitor — the paper's ACL check, consulting the
   directory ACL for the letters each :class:`~repro.core.ops.PathArg`
   declares, with the mkdir/rmdir/hard-link special rules, feeding the
   audit log,
8. the handler, which only implements the action.

Stages 2, 3, 6 and 7 are straight-line steps of :class:`Enforcement`,
not a frame and a ``proceed`` each.  Tracing, admission and the cache
take the interceptor protocol ``(op, ctx, proceed)``, as do interceptors
added from outside, which run before the composed stages.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ..kernel.errno import Errno, KernelError, err
from ..kernel.timing import NS_PER_S
from ..kernel.vfs import basename
from .acl import ACL_FILE_NAME
from .aclfs import AclPolicy
from .audit import AuditLog
from .ops import (
    CACHEABLE_OPS,
    CHECK_ADMIN,
    CHECK_HARDLINK,
    CHECK_LETTERS,
    CHECK_MKDIR,
    CHECK_NONE,
    CHECK_RMDIR,
    GUARD_NONE,
    GUARD_PROTECT,
    MUTATING_OPS,
    OpRegistry,
    OpSpec,
    PathArg,
    acl_dir_for,
    open_mutates,
)
from .telemetry import CounterHandle, HandleCache, Telemetry, TracingInterceptor

#: Interceptor signature: ``(op, ctx, proceed) -> result``.  Call
#: ``proceed()`` to continue down the chain; raise to short-circuit.
Interceptor = Callable[["Operation", Any, Callable[[], Any]], Any]

#: The refusals :class:`DenialCounter` counts: a policy said no.
_DENIALS = frozenset({Errno.EACCES, Errno.EPERM})

#: ``op.scratch`` flag the reference monitor sets when any resolution the
#: op made followed a symlink: the op then reached an object under a name
#: other than its physical path, which path-keyed state cannot track.
CROSSED_SYMLINK = "crossed_symlink"


@dataclass(slots=True)
class BoundPath:
    """One path argument after surface-specific resolution.

    ``full`` is the caller-visible absolute path (used for ACL-file
    guarding and messages); ``sub`` is the driver/policy-facing path
    (mount-relative for the supervisor, export-rooted for Chirp).
    """

    spec: PathArg
    raw: str
    full: str
    sub: str
    driver: Any = None
    check_acl: bool = True


@dataclass(slots=True)
class Operation:
    """One operation in flight, surface-agnostic."""

    name: str
    surface: str
    args: dict[str, Any] = field(default_factory=dict)
    identity: str | None = None
    cwd: str = "/"
    paths: list[BoundPath] = field(default_factory=list)
    scratch: dict[str, Any] = field(default_factory=dict)
    spec: OpSpec | None = None

    def path(self, index: int = 0) -> BoundPath:
        return self.paths[index]


class AuditSink:
    """Timestamped adapter from the pipeline to an :class:`AuditLog`.

    A ``None`` log makes every emit a no-op, so handlers and interceptors
    audit unconditionally.
    """

    def __init__(self, clock=None, log: AuditLog | None = None) -> None:
        self.clock = clock
        self.log = log

    def emit(
        self,
        identity: str | None,
        operation: str,
        target: str,
        allowed: bool,
        detail: str = "",
    ) -> None:
        if self.log is None:
            return
        self.log.record(
            self.clock.now_ns if self.clock is not None else 0,
            identity or "?",
            operation,
            target,
            allowed,
            detail,
        )


# ---------------------------------------------------------------------- #
# the standard stages
# ---------------------------------------------------------------------- #


class DenialCounter:
    """The one place a policy refusal is counted: :meth:`count` adds one
    to ``pipeline.denials{surface,op,errno}``, the acting identity and
    errno its exemplar; :meth:`snapshot` (the per-errno breakdown) and
    :meth:`total` read these series back."""

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        #: (surface, op, errno) -> its series, bound on the first refusal
        self._handles: dict[tuple[str, str, str], CounterHandle] = {}

    def snapshot(self) -> dict[str, int]:
        """The denial counts by errno, detached."""
        out: dict[str, int] = {}
        for (_surface, _op, errno), handle in self._handles.items():
            if handle.value:
                out[errno] = out.get(errno, 0) + handle.value
        return out

    def total(self) -> int:
        return sum(handle.value for handle in self._handles.values())

    def count(self, op: Operation, errno: Errno) -> None:
        """Count one refusal of ``op`` with ``errno`` (EACCES or EPERM)."""
        name = errno.name
        key = (op.surface, op.name, name)
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = self.telemetry.counter(
                "pipeline.denials", surface=op.surface, op=op.name, errno=name
            )
        handle.inc(exemplar={"identity": op.identity or "?", "errno": name})


def _ancestors(path: str) -> list[str]:
    """Every strict ancestor of ``path``: each prefix that ends just
    before a ``/``.  Purely lexical, so ``/a`` is an ancestor of ``/a/b``
    but not of ``/a/bb``, and ``/`` is an ancestor of nothing (``""`` is
    the ancestor of every absolute path)."""
    out = []
    cut = path.find("/")
    while cut != -1:
        out.append(path[:cut])
        cut = path.find("/", cut + 1)
    return out


class _Counted:
    """A stage counting into :attr:`metrics`: its telemetry, which
    :func:`build_pipeline` may set late, else a private registry."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        self.telemetry = telemetry
        self._private = Telemetry()
        self._counters = HandleCache("counter", "op")

    @property
    def metrics(self) -> Telemetry:
        return self.telemetry if self.telemetry is not None else self._private

    def _count(self, name: str, op: str = "", value: int = 1) -> None:
        self._counters.get(self.metrics, name, op).inc(value)


def _counted(name: str) -> property:
    """A read-only attribute: ``name``'s total in the owner's ``metrics``."""
    return property(lambda self: self.metrics.counter_total(name))


#: Most results a :class:`ReadCache` holds by default.  Entries are keyed
#: by identity, so a principal seen once keeps its entries until this many
#: newer ones push them out, least recently used first.
READ_CACHE_ENTRIES = 4096


class ReadCache(_Counted):
    """Fast-lane memoization of read-only ops at the pipeline mouth.

    Threadbox-style repeated-decision caching: a hit on the key
    ``(identity, op, paths, args)`` returns the memoized handler result
    without walking the guard or the reference monitor again — the
    original decision was checked and audited; replaying it for the same
    principal on unchanged state is what makes per-boundary enforcement
    viable on a hot path.  Correctness rests on invalidation, not
    expiry:

    * every mutating op flowing through the same chain drops entries for
      each path it touches, its ancestors (a created child changes the
      parent's stat), and its descendants (a renamed or re-ACL'd
      directory changes every verdict below it) — ``setacl`` invalidates
      from the *governing* directory down.  A path index finds them
      without scanning: ``_by_path`` maps each cached path to the keys
      that read it and ``_below`` maps each ancestor to the cached paths
      strictly under it, so a mutation costs O(path depth + entries
      dropped), whatever the cache size;
    * descriptor writes (``pwrite``/``ftruncate``) invalidate via the
      ``op.scratch["fastlane_paths"]`` hint the surface stashes; a
      path-less mutation flushes everything;
    * invalidation runs even when the mutation fails, because a handler
      may have partially applied before raising;
    * a change of the value ``epoch_source`` reads (the Chirp server
      reads the file system's incarnation, which ``Machine.restore``
      renews) flushes everything — entries must never outlive the world
      they were read from;
    * errors are never cached, so ENOENT-then-create stays visible;
    * an op that crossed a symlink (:data:`CROSSED_SYMLINK`) reached its
      object under an alias: its result is never stored, and if it is a
      mutation it flushes everything.  Every cached path is therefore a
      physical one, and a mutation by physical path finds every entry it
      can change.

    Only successful results of ops in ``cacheable`` are stored, and only
    surfaces whose handlers are pure install the cache at all (the Chirp
    server does; the supervisor's handlers act on child process state).
    """

    def __init__(
        self,
        cacheable: frozenset[str] = CACHEABLE_OPS,
        *,
        capacity: int = READ_CACHE_ENTRIES,
        telemetry: Telemetry | None = None,
        epoch_source: Callable[[], Any] | None = None,
    ) -> None:
        super().__init__(telemetry)
        self.cacheable = cacheable
        self.capacity = capacity
        self.epoch_source = epoch_source
        self._epoch = epoch_source() if epoch_source is not None else None
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self._by_path: dict[str, set[tuple]] = {}
        self._below: dict[str, set[str]] = {}

    hits = _counted("fastlane.cache.hits")
    misses = _counted("fastlane.cache.misses")
    invalidations = _counted("fastlane.cache.invalidations")
    flushes = _counted("fastlane.cache.flushes")

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict[str, int]:
        """Detached counters for :meth:`Pipeline.stats` and ``repro metrics``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
            "entries": len(self._entries),
        }

    def _key(self, op: Operation) -> tuple | None:
        path_fields = {bound.spec.field for bound in op.paths}
        extras = tuple(
            sorted(
                (k, v)
                for k, v in op.args.items()
                if k not in path_fields
            )
        )
        key = (
            op.identity,
            op.name,
            tuple(bound.sub for bound in op.paths),
            extras,
        )
        try:
            hash(key)
        except TypeError:
            return None  # unhashable argument: bypass, never a wrong answer
        return key

    def _check_epoch(self) -> None:
        if self.epoch_source is None:
            return
        epoch = self.epoch_source()
        if epoch != self._epoch:
            # the world was restored out from under us: every entry
            # describes a state that no longer exists
            self._epoch = epoch
            if self._entries:
                self.invalidate_all()

    def _index(self, key: tuple) -> None:
        for path in set(key[2]):
            keys = self._by_path.get(path)
            if keys is None:
                keys = self._by_path[path] = set()
                for ancestor in _ancestors(path):
                    self._below.setdefault(ancestor, set()).add(path)
            keys.add(key)

    def _unindex(self, key: tuple) -> None:
        for path in set(key[2]):
            keys = self._by_path[path]
            keys.discard(key)
            if keys:
                continue
            del self._by_path[path]
            for ancestor in _ancestors(path):
                below = self._below[ancestor]
                below.discard(path)
                if not below:
                    del self._below[ancestor]

    def _dropped(self, dropped: int) -> None:
        if dropped:
            self._count("fastlane.cache.invalidations", value=dropped)

    def invalidate_all(self) -> None:
        dropped = len(self._entries)
        self._entries.clear()
        self._by_path.clear()
        self._below.clear()
        self._dropped(dropped)
        self._count("fastlane.cache.flushes")

    def invalidate_paths(self, paths: list[str]) -> None:
        # the keys cached at a mutated path, at any of its ancestors, or
        # at any path below it — exactly the pairs where one path is the
        # other or contains it
        by_path = self._by_path
        doomed: set[tuple] = set()
        for mutated in paths:
            for path in (mutated, *_ancestors(mutated)):
                doomed.update(by_path.get(path, ()))
            for path in self._below.get(mutated, ()):
                doomed.update(by_path[path])
        for key in doomed:
            del self._entries[key]
            self._unindex(key)
        self._dropped(len(doomed))

    def _invalidate_for(self, op: Operation) -> None:
        # setacl's verdict scope is the governing directory the monitor
        # resolved (a file's ACL lives in its parent): invalidate from
        # there down, not just the named path
        paths = [bound.sub for bound in op.paths]
        acl_dir = op.scratch.get("acl_dir")
        if acl_dir is not None:
            paths.append(acl_dir)
        hints = op.scratch.get("fastlane_paths")
        if hints is not None:
            if any(hint is None for hint in hints):
                self.invalidate_all()
                return
            paths.extend(hints)
        if (
            not paths
            or op.name in ("exec", "spawn")
            or op.scratch.get(CROSSED_SYMLINK)
        ):
            # a path-less mutation, arbitrary code running as the caller,
            # or a change made through an alias the cached paths do not
            # name: nothing narrower than a flush is sound
            self.invalidate_all()
            return
        self.invalidate_paths(paths)

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        self._check_epoch()
        name = op.name
        if name in self.cacheable and op.paths:
            key = self._key(op)
            if key is not None:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._count("fastlane.cache.hits", name)
                    value = self._entries[key]
                    return dict(value) if isinstance(value, dict) else value
                result = proceed()
                self._count("fastlane.cache.misses", name)
                if op.scratch.get(CROSSED_SYMLINK):
                    return result
                self._entries[key] = (
                    dict(result) if isinstance(result, dict) else result
                )
                self._index(key)
                while len(self._entries) > self.capacity:
                    self._unindex(self._entries.popitem(last=False)[0])
                return result
            return proceed()
        if name in MUTATING_OPS and (name != "open" or open_mutates(op)):
            try:
                return proceed()
            finally:
                self._invalidate_for(op)
        return proceed()


#: Most identities :class:`Admission` remembers at once.  The least
#: recently seen is forgotten first and comes back with a full bucket and
#: no failures: dodging a limit that way takes this many valid
#: identities, each of which has its own budget anyway.
ADMISSION_RECORDS = 4096


class _Record:
    """One token bucket, plus the circuit state of the identity it meters."""

    __slots__ = ("tokens", "last_ns", "failures", "open_until")

    def __init__(self, tokens: float, now_ns: int) -> None:
        self.tokens = tokens
        self.last_ns = now_ns
        self.failures = 0
        self.open_until: int | None = None


def _balance(record: _Record, rate_per_s: float, burst: int, now_ns: int) -> float:
    """``record``'s tokens refilled up to ``now_ns``, none spent."""
    elapsed = max(0, now_ns - record.last_ns)
    return min(float(burst), record.tokens + elapsed * rate_per_s / 1e9)


def _take(record: _Record, rate_per_s: float, burst: int, now_ns: int) -> bool:
    """Refill ``record`` to ``now_ns`` and spend one token if it has one."""
    tokens = _balance(record, rate_per_s, burst, now_ns)
    record.last_ns = now_ns
    if tokens >= 1.0:
        record.tokens = tokens - 1.0
        return True
    record.tokens = tokens
    return False


class Admission(_Counted):
    """Grimlock-style admission control: every EAGAIN refusal in one place.

    Three rules against the simulated clock, each off until armed:

    * **arrivals** (``arrival_rate_per_s``, ``arrival_burst``) — one
      server-wide bucket that sheds load instead of queueing it without
      bound.  The Chirp framing layer spends it through :meth:`arrive`,
      so a batch envelope is one arrival and a shed reply is never cached;
    * **budget** (``rate_per_s``, ``burst``) — a bucket per identity, so
      one hot principal cannot starve the rest;
    * **circuit** (``threshold``, ``cooldown_ns``) — an identity whose ops
      fail ``threshold`` times in a row is refused for ``cooldown_ns``,
      then half-opens: its next op runs and closes or re-trips it.

    As a pipeline interceptor, right after the identity gate, it checks
    the budget and then the circuit: a budget refusal never counts as a
    circuit failure, and a circuit refusal has already spent its token.
    Pre-auth ops (``auth``) are exempt from both: before authentication
    there is no identity to meter, and one shared name for every stranger
    would let anyone's failed logins close the circuit on everyone.
    EAGAIN is transient, so a retrying client backs off, simulated time
    passes and the bucket refills.  Each identity's bucket and circuit are
    one record in an LRU bounded by :data:`ADMISSION_RECORDS`.
    """

    def __init__(
        self,
        clock=None,
        *,
        arrival_rate_per_s: float | None = None,
        arrival_burst: int = 32,
        rate_per_s: float | None = None,
        burst: int = 16,
        threshold: int | None = None,
        cooldown_ns: int = NS_PER_S,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(telemetry)
        self.clock = clock
        self.arrival_rate_per_s = arrival_rate_per_s
        self.arrival_burst = arrival_burst
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.threshold = threshold
        self.cooldown_ns = cooldown_ns
        self._arrivals = _Record(float(arrival_burst), 0)
        self._records: "OrderedDict[str, _Record]" = OrderedDict()

    admitted = _counted("admission.admitted")
    over_budget = _counted("fastlane.quota.rejections")
    successes = _counted("admission.successes")
    failures = _counted("admission.failures")
    trips = _counted("admission.trips")
    circuit_rejected = _counted("admission.circuit_rejected")

    def __len__(self) -> int:
        return len(self._records)

    def _now(self) -> int:
        return self.clock.now_ns if self.clock is not None else 0

    def arrive(self) -> bool:
        """Spend one server-wide arrival token; ``False`` means shed."""
        if self.arrival_rate_per_s is None:
            return True
        return _take(
            self._arrivals, self.arrival_rate_per_s, self.arrival_burst, self._now()
        )

    def tokens(self, identity: str) -> float:
        """Current budget balance (after refill), mainly for tests and metrics."""
        record = self._records.get(identity)
        if record is None:
            return float(self.burst)
        return _balance(record, self.rate_per_s, self.burst, self._now())

    def is_open(self, identity: str) -> bool:
        record = self._records.get(identity)
        return (
            record is not None
            and record.open_until is not None
            and self._now() < record.open_until
        )

    def snapshot(self) -> dict[str, Any]:
        """Detached sections for each armed per-identity rule: ``health``
        for the circuit, ``quota`` for the budget."""
        out: dict[str, Any] = {}
        if self.threshold is not None:
            out["health"] = {
                "successes": self.successes,
                "failures": self.failures,
                "trips": self.trips,
                "rejected": self.circuit_rejected,
                "open": sorted(i for i in self._records if self.is_open(i)),
            }
        if self.rate_per_s is not None:
            out["quota"] = {
                "admitted": self.admitted,
                "rejected": self.over_budget,
                "exhausted": sorted(
                    i for i in self._records if self.tokens(i) < 1.0
                ),
                "rate_per_s": self.rate_per_s,
                "burst": self.burst,
            }
        return out

    def _record(self, identity: str, now_ns: int) -> _Record:
        records = self._records
        record = records.get(identity)
        if record is None:
            record = records[identity] = _Record(float(self.burst), now_ns)
            if len(records) > ADMISSION_RECORDS:
                records.popitem(last=False)
        else:
            records.move_to_end(identity)
        return record

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        if (self.rate_per_s is None and self.threshold is None) or (
            op.spec is not None and op.spec.pre_auth
        ):
            return proceed()
        identity = op.identity or "<anonymous>"
        now = self._now()
        record = self._record(identity, now)
        if self.rate_per_s is not None:
            if not _take(record, self.rate_per_s, self.burst, now):
                self._count("fastlane.quota.rejections", op.name)
                raise err(
                    Errno.EAGAIN,
                    f"per-identity quota exceeded for {identity}; retry later",
                )
            self._count("admission.admitted")
        if self.threshold is None:
            return proceed()
        if record.open_until is not None:
            if now < record.open_until:
                self._count("admission.circuit_rejected")
                raise err(
                    Errno.EAGAIN, f"circuit open for {identity}; degraded service"
                )
            # cooldown over: half-open, let this operation probe (the
            # trip already zeroed the failure count)
            record.open_until = None
        try:
            result = proceed()
        except KernelError:
            self._count("admission.failures")
            record.failures += 1
            if record.failures >= self.threshold:
                record.open_until = now + self.cooldown_ns
                record.failures = 0
                self._count("admission.trips")
            raise
        record.failures = 0
        self._count("admission.successes")
        return result


class _Proceed:
    """The rest of the composed chain for one op: the zero-argument
    ``proceed`` of :class:`Admission` and :class:`ReadCache`."""

    __slots__ = ("step", "op", "ctx")

    def __init__(self, step: Callable[["Operation", Any], Any], op: Operation, ctx: Any) -> None:
        self.step = step
        self.op = op
        self.ctx = ctx

    def __call__(self) -> Any:
        return self.step(self.op, self.ctx)


class Enforcement:
    """The standard stages, composed once per pipeline.

    :meth:`run` counts the EACCES/EPERM refusals leaving it, resolves the
    acting identity and passes the op through the :class:`Admission` and
    :class:`ReadCache` present to :meth:`_checked`: the ACL-file guard,
    the paper's reference monitor, the handler.  The monitor runs the
    check each :class:`PathArg` declares, audits it and refuses with
    EACCES; it skips paths whose driver enforces ACLs itself
    (``check_acl`` false), refuses cross-driver pairs with EXDEV, and sets
    :data:`CROSSED_SYMLINK` when a resolution of the policy's (its own or
    the handler's) followed a symlink.  Stages are looked up per op, so a
    method a tracer replaces on a stage's class takes effect at once.
    """

    def __init__(
        self,
        policy: AclPolicy,
        audit: AuditSink,
        denials: DenialCounter,
        resolve: Callable[["Operation", Any], str | None] | None = None,
        limits: Admission | None = None,
        cache: ReadCache | None = None,
    ) -> None:
        self.policy = policy
        self.audit = audit
        self.denials = denials
        self.resolve = resolve
        self.limits = limits
        self.cache = cache

    def run(self, op: Operation, ctx: Any) -> Any:
        """Denial counting around the identity gate and everything below."""
        try:
            if op.identity is None and self.resolve is not None:
                op.identity = self.resolve(op, ctx)
            if self.limits is not None:
                return self.limits(op, ctx, _Proceed(self._admitted, op, ctx))
            if self.cache is not None:
                return self.cache(op, ctx, _Proceed(self._checked, op, ctx))
            return self._checked(op, ctx)
        except KernelError as exc:
            if exc.errno in _DENIALS:
                self.denials.count(op, exc.errno)
            raise

    def _admitted(self, op: Operation, ctx: Any) -> Any:
        """What runs once :class:`Admission` lets ``op`` through."""
        if self.cache is not None:
            return self.cache(op, ctx, _Proceed(self._checked, op, ctx))
        return self._checked(op, ctx)

    def _checked(self, op: Operation, ctx: Any) -> Any:
        """The ACL-file guard, the reference monitor, then the handler."""
        paths = op.paths
        for bound in paths:
            guard = bound.spec.guard
            if guard != GUARD_NONE and basename(bound.full) == ACL_FILE_NAME:
                # ACL files are reachable only through getacl/setacl; to
                # a read-only probe they do not exist
                if guard == GUARD_PROTECT:
                    raise err(Errno.EACCES, "ACL files are managed via setacl")
                raise err(Errno.ENOENT, bound.full)
        if len(paths) == 2:
            first, second = paths
            if (
                first.driver is not None
                and second.driver is not None
                and first.driver is not second.driver
            ):
                raise err(Errno.EXDEV, f"{first.full} -> {second.full}")
        policy = self.policy
        walked = policy.symlinks_walked
        try:
            for bound in paths:
                if bound.check_acl and bound.spec.check != CHECK_NONE:
                    self._check_path(op, bound)
            if policy.symlinks_walked != walked:
                op.scratch[CROSSED_SYMLINK] = True
            return op.spec.handler(op, ctx)
        finally:
            if policy.symlinks_walked != walked:
                op.scratch[CROSSED_SYMLINK] = True

    def _check_path(self, op: Operation, bound: BoundPath) -> None:
        spec = bound.spec
        if spec.check == CHECK_LETTERS:
            if spec.require_exists:
                # errno precedence matches the kernel: trouble resolving
                # the object (ENOENT, ENOTDIR, ELOOP) reports before ACLs
                self.policy.require_exists(bound.sub, cwd=op.cwd, follow=spec.follow)
            letters = spec.letters
            if callable(letters):
                letters = letters(op, bound, self.policy)
            if not letters:
                return
            decision = self.policy.check(
                op.identity,
                bound.sub,
                letters,
                cwd=op.cwd,
                follow=spec.follow,
                scope=spec.scope,
            )
            if self.audit.log is not None:  # the reason is built only to be logged
                self.audit.emit(
                    op.identity,
                    f"check:{letters}",
                    bound.sub,
                    decision.allowed,
                    decision.reason,
                )
            if not decision.allowed:
                raise err(
                    Errno.EACCES, f"{op.identity} lacks {letters!r} on {bound.sub}"
                )
        elif spec.check == CHECK_MKDIR:
            _res, new_acl = self.policy.plan_mkdir(op.identity, bound.sub, cwd=op.cwd)
            op.scratch["mkdir_acl"] = new_acl
        elif spec.check == CHECK_RMDIR:
            decision = self.policy.check_remove_dir(op.identity, bound.sub, cwd=op.cwd)
            if self.audit.log is not None:
                self.audit.emit(
                    op.identity, "check:rmdir", bound.sub, decision.allowed, decision.reason
                )
            if not decision.allowed:
                raise err(Errno.EACCES, f"{op.identity} may not rmdir {bound.sub}")
        elif spec.check == CHECK_HARDLINK:
            other = op.path(1)
            self.policy.check_hard_link(op.identity, bound.sub, other.sub, cwd=op.cwd)
            self.audit.emit(
                op.identity,
                "link",
                f"{bound.full} -> {other.full}",
                True,
                "hard-link-vetted",
            )
        elif spec.check == CHECK_ADMIN:
            acl_dir = acl_dir_for(bound.driver, bound.sub)
            self.policy.require_admin(op.identity, acl_dir)
            op.scratch["acl_dir"] = acl_dir
        else:  # pragma: no cover - registration-time programming error
            raise err(Errno.EINVAL, f"unknown check mode {spec.check!r}")


# ---------------------------------------------------------------------- #
# the pipeline proper
# ---------------------------------------------------------------------- #


def _handle(op: Operation, ctx: Any) -> Any:
    """The innermost step of a pipeline built without the standard stages."""
    return op.spec.handler(op, ctx)


class Pipeline:
    """Interceptors and the composed standard stages in front of an
    operation registry."""

    def __init__(
        self,
        registry: OpRegistry,
        interceptors: list[Interceptor] | None = None,
        audit: AuditSink | None = None,
        limits: Admission | None = None,
        telemetry: Telemetry | None = None,
        cache: ReadCache | None = None,
        enforcement: Enforcement | None = None,
    ) -> None:
        self.registry = registry
        self.interceptors: list[Interceptor] = list(interceptors or [])
        self.audit = audit or AuditSink()
        self.limits = limits
        self.telemetry = telemetry
        self.cache = cache
        self.denial_counter = enforcement.denials if enforcement is not None else None
        #: the step below the interceptors: the standard stages, else the handler
        self._inner = enforcement.run if enforcement is not None else _handle

    def stats(self) -> dict[str, Any]:
        """Cross-cutting pipeline state: circuit health, denials, telemetry.

        Every value is a detached copy — callers may mutate the result
        (sort it, annotate it, json-dump it destructively) without
        corrupting the live admission store or the live histograms.
        """
        out: dict[str, Any] = {}
        limits = self.limits.snapshot() if self.limits is not None else {}
        if "health" in limits:
            out["health"] = limits["health"]
        if self.denial_counter is not None:
            out["denials"] = self.denial_counter.snapshot()
        if self.cache is not None or "quota" in limits:
            fastlane: dict[str, Any] = {}
            if self.cache is not None:
                fastlane["cache"] = self.cache.snapshot()
            if "quota" in limits:
                fastlane["quota"] = limits["quota"]
            out["fastlane"] = fastlane
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.snapshot()
        return out

    def add_interceptor(self, interceptor: Interceptor, index: int | None = None) -> None:
        """Insert an interceptor (outermost by default, i.e. index 0).

        Every interceptor runs before the standard stages, so ``op.identity``
        is whatever the surface bound: the identity gate has not run yet.
        """
        if index is None:
            index = 0
        self.interceptors.insert(index, interceptor)

    def run(self, op: Operation, ctx: Any) -> Any:
        """Send ``op`` down the chain to its handler; returns its result."""
        op.spec = self.registry.get(op.name)
        if self.interceptors:
            return self._intercepted(op, ctx)
        return self._inner(op, ctx)

    def _intercepted(self, op: Operation, ctx: Any) -> Any:
        """Run the interceptors in order, each ``proceed`` the rest of the
        chain, bound from the innermost step outwards."""
        interceptors = self.interceptors
        proceed = partial(self._inner, op, ctx)
        for interceptor in reversed(interceptors[1:]):
            proceed = partial(interceptor, op, ctx, proceed)
        return interceptors[0](op, ctx, proceed)


def build_pipeline(
    registry: OpRegistry,
    *,
    policy: AclPolicy,
    clock=None,
    audit_log: AuditLog | None = None,
    resolve_identity: Callable[[Operation, Any], str | None] | None = None,
    limits: Admission | None = None,
    telemetry: Telemetry | None = None,
    cache: ReadCache | None = None,
) -> Pipeline:
    """Compose the standard enforcement chain over ``registry``.

    An :class:`Admission` passed as ``limits`` runs right after identity
    resolution, so an identity over budget or with an open circuit is
    refused before any policy work is spent on it.  A :class:`ReadCache`
    goes just inside it: a hit answers before the ACL-file guard and the
    reference monitor run, a mutating op invalidates on its way through.
    Both inherit the pipeline's clock/telemetry unless they brought their
    own.  A :class:`Telemetry` adds a
    :class:`~repro.core.telemetry.TracingInterceptor` outermost: its span
    and latency histogram bracket the entire chain, rejections and
    denials included.  Without one the chain opens no spans, and the
    denial counter counts into a private registry.
    """
    audit = AuditSink(clock, audit_log)
    denials = DenialCounter(telemetry if telemetry is not None else Telemetry(clock))
    if limits is not None:
        if limits.clock is None:
            limits.clock = clock
        if limits.telemetry is None:
            limits.telemetry = telemetry
    if cache is not None and cache.telemetry is None:
        cache.telemetry = telemetry
    return Pipeline(
        registry,
        [TracingInterceptor(telemetry)] if telemetry is not None else None,
        audit=audit,
        limits=limits,
        telemetry=telemetry,
        cache=cache,
        enforcement=Enforcement(policy, audit, denials, resolve_identity, limits, cache),
    )
