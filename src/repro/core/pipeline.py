"""The shared operation pipeline: one choke point for both entry surfaces.

Every guarded operation — a syscall trapped inside an identity box (§3,
Figure 4a) or a Chirp RPC from an authenticated principal (§4) — flows
through one :class:`Pipeline`: an ordered chain of interceptors ending at
the operation's registered handler.  The standard chain is

1. :class:`DenialCounter` — maps EACCES/EPERM into the surface's denial
   statistic (``Supervisor.denials``, ``ServerStats.denials``),
2. :class:`IdentityGate` — resolves *who* is acting (the box member's
   identity; the connection's principal, refusing unauthenticated calls),
3. :class:`AclFileGuard` — shields the per-directory ACL file, which is
   reachable only through getacl/setacl,
4. :class:`ReferenceMonitor` — the paper's ACL check, consulting the
   directory ACL for the letters each :class:`~repro.core.ops.PathArg`
   declares, with the mkdir/rmdir/hard-link special rules, feeding the
   audit log,
5. the handler, which only implements the action.

Cross-cutting features (caching, batching, tracing — see ROADMAP) insert
one interceptor here instead of patching ~40 handler methods.
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
    GUARD_HIDE,
    GUARD_PROTECT,
    MUTATING_OPS,
    OpRegistry,
    OpSpec,
    PathArg,
    acl_dir_for,
    open_mutates,
)
from .telemetry import HandleCache, Telemetry, TracingInterceptor

#: Interceptor signature: ``(op, ctx, proceed) -> result``.  Call
#: ``proceed()`` to continue down the chain; raise to short-circuit.
Interceptor = Callable[["Operation", Any, Callable[[], Any]], Any]

#: ``op.scratch`` flag the reference monitor sets when any resolution the
#: op made followed a symlink: the op then reached an object under a name
#: other than its physical path, which path-keyed state cannot track.
CROSSED_SYMLINK = "crossed_symlink"


@dataclass
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


@dataclass
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
# ACL-file shielding (the only module that knows how)
# ---------------------------------------------------------------------- #


def _protect_acl_file(full: str) -> None:
    """ACL files are only reachable through getacl/setacl."""
    if basename(full) == ACL_FILE_NAME:
        raise err(Errno.EACCES, "ACL files are managed via setacl")


def _hide_acl_file(full: str) -> None:
    """For read-only probes the ACL file simply does not exist."""
    if basename(full) == ACL_FILE_NAME:
        raise err(Errno.ENOENT, full)


# ---------------------------------------------------------------------- #
# the standard interceptors
# ---------------------------------------------------------------------- #


class DenialCounter:
    """Outermost: turn policy refusals into the surface's denial stat.

    Also keeps a per-errno breakdown (EACCES vs EPERM) so the denial
    statistic is inspectable without re-deriving it from telemetry;
    surfaced through :meth:`Pipeline.stats` and ``repro metrics``.
    """

    def __init__(self, on_denial: Callable[["Operation"], None] | None) -> None:
        self.on_denial = on_denial
        self.errnos: dict[str, int] = {}

    def snapshot(self) -> dict[str, int]:
        """A detached copy of the per-errno denial counts."""
        return dict(self.errnos)

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        try:
            return proceed()
        except KernelError as exc:
            if exc.errno in (Errno.EACCES, Errno.EPERM):
                name = exc.errno.name
                self.errnos[name] = self.errnos.get(name, 0) + 1
                if self.on_denial:
                    self.on_denial(op)
            raise


class IdentityGate:
    """Resolve the acting identity before any policy decision."""

    def __init__(
        self, resolve: Callable[["Operation", Any], str | None] | None
    ) -> None:
        self.resolve = resolve

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        if op.identity is None and self.resolve is not None:
            op.identity = self.resolve(op, ctx)
        return proceed()


@dataclass
class HealthStats:
    """Counters the circuit breaker surfaces in pipeline stats."""

    successes: int = 0
    failures: int = 0
    trips: int = 0
    rejected: int = 0


class CircuitBreaker:
    """Per-identity consecutive-failure circuit breaker.

    Grimlock-style graceful degradation: an identity whose operations
    fail ``threshold`` times in a row stops being serviced for
    ``cooldown_ns`` of simulated time — its calls are rejected with
    EAGAIN at the pipeline mouth, shielding the handlers (and the
    machine behind them) from a client stuck in a failure loop.  After
    the cooldown the circuit half-opens: the next operation runs, and
    its outcome closes or re-trips the breaker.
    """

    def __init__(
        self,
        clock=None,
        threshold: int = 8,
        cooldown_ns: int = NS_PER_S,
    ) -> None:
        self.clock = clock
        self.threshold = threshold
        self.cooldown_ns = cooldown_ns
        self.stats = HealthStats()
        self._consecutive: dict[str, int] = {}
        self._open_until: dict[str, int] = {}

    def _now(self) -> int:
        return self.clock.now_ns if self.clock is not None else 0

    def is_open(self, identity: str) -> bool:
        until = self._open_until.get(identity)
        return until is not None and self._now() < until

    def failure_count(self, identity: str) -> int:
        return self._consecutive.get(identity, 0)

    def snapshot(self) -> dict[str, Any]:
        """A detached copy: callers may mutate it without corrupting the breaker."""
        return {
            "successes": self.stats.successes,
            "failures": self.stats.failures,
            "trips": self.stats.trips,
            "rejected": self.stats.rejected,
            "open": sorted(i for i in self._open_until if self.is_open(i)),
        }

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        identity = op.identity or "<anonymous>"
        now = self._now()
        until = self._open_until.get(identity)
        if until is not None:
            if now < until:
                self.stats.rejected += 1
                raise err(
                    Errno.EAGAIN, f"circuit open for {identity}; degraded service"
                )
            # cooldown over: half-open, let this operation probe
            del self._open_until[identity]
            self._consecutive[identity] = 0
        try:
            result = proceed()
        except KernelError:
            self.stats.failures += 1
            count = self._consecutive.get(identity, 0) + 1
            self._consecutive[identity] = count
            if count >= self.threshold:
                self._open_until[identity] = now + self.cooldown_ns
                self._consecutive[identity] = 0
                self.stats.trips += 1
            raise
        self._consecutive[identity] = 0
        self.stats.successes += 1
        return result


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


class ReadCache:
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
    * a world-epoch change (``Machine.restore``) flushes everything —
      entries must never outlive the world they were read from;
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
        capacity: int = 4096,
        telemetry: Telemetry | None = None,
        epoch_source: Callable[[], Any] | None = None,
    ) -> None:
        self.cacheable = cacheable
        self.capacity = capacity
        self.telemetry = telemetry
        self.epoch_source = epoch_source
        self._epoch = epoch_source() if epoch_source is not None else None
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self._by_path: dict[str, set[tuple]] = {}
        self._below: dict[str, set[str]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.flushes = 0
        self._counters = HandleCache("counter", "op")

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

    def _count(self, name: str, op: str = "", value: int = 1) -> None:
        if self.telemetry is not None:
            self._counters.get(self.telemetry, name, op).inc(value)

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
            self.invalidations += dropped
            self._count("fastlane.cache.invalidations", value=dropped)

    def invalidate_all(self) -> None:
        dropped = len(self._entries)
        self._entries.clear()
        self._by_path.clear()
        self._below.clear()
        self._dropped(dropped)
        self.flushes += 1
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
                    self.hits += 1
                    self._count("fastlane.cache.hits", name)
                    value = self._entries[key]
                    return dict(value) if isinstance(value, dict) else value
                result = proceed()
                self.misses += 1
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


@dataclass
class QuotaStats:
    """Counters the per-identity quota surfaces in pipeline stats."""

    admitted: int = 0
    rejected: int = 0


class IdentityQuota:
    """Per-identity op budget: a token bucket per principal at the mouth.

    Grimlock-style admission control.  PR 2's :class:`OverloadPolicy`
    sheds by *arrival* — one server-wide bucket, blind to who is asking —
    so a single hot principal can starve everyone.  This interceptor
    meters each identity separately: every op drains that principal's
    bucket, which refills at ``rate_per_s`` of simulated time up to
    ``burst``.  Past the budget the op is refused with EAGAIN *before*
    any guard or monitor work runs — the same transient-errno contract
    the shed and the circuit breaker use, so a retrying client backs
    off, the simulated clock advances, and the bucket refills.
    Pre-auth ops (``auth``) are exempt: an identity must be resolvable
    to be metered.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: int = 16,
        clock=None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.clock = clock
        self.telemetry = telemetry
        self.stats = QuotaStats()
        self._buckets: dict[str, tuple[float, int]] = {}

    def _now(self) -> int:
        return self.clock.now_ns if self.clock is not None else 0

    def tokens(self, identity: str) -> float:
        """Current balance (after refill), mainly for tests and metrics."""
        tokens, last_ns = self._buckets.get(identity, (float(self.burst), 0))
        elapsed = max(0, self._now() - last_ns)
        return min(float(self.burst), tokens + elapsed * self.rate_per_s / 1e9)

    def _admit(self, identity: str, now_ns: int) -> bool:
        tokens, last_ns = self._buckets.get(identity, (float(self.burst), now_ns))
        elapsed = max(0, now_ns - last_ns)
        tokens = min(float(self.burst), tokens + elapsed * self.rate_per_s / 1e9)
        if tokens >= 1.0:
            self._buckets[identity] = (tokens - 1.0, now_ns)
            return True
        self._buckets[identity] = (tokens, now_ns)
        return False

    def snapshot(self) -> dict[str, Any]:
        """A detached copy: admitted/rejected plus identities at zero."""
        return {
            "admitted": self.stats.admitted,
            "rejected": self.stats.rejected,
            "exhausted": sorted(
                identity
                for identity in self._buckets
                if self.tokens(identity) < 1.0
            ),
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
        }

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        if op.spec is not None and op.spec.pre_auth:
            return proceed()
        identity = op.identity or "<anonymous>"
        if not self._admit(identity, self._now()):
            self.stats.rejected += 1
            if self.telemetry is not None:
                self.telemetry.counter_inc(
                    "fastlane.quota.rejections", op=op.name
                )
            raise err(
                Errno.EAGAIN,
                f"per-identity quota exceeded for {identity}; retry later",
            )
        self.stats.admitted += 1
        return proceed()


class AclFileGuard:
    """Apply each path's declared ACL-file shielding mode."""

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        for bound in op.paths:
            if bound.spec.guard == GUARD_PROTECT:
                _protect_acl_file(bound.full)
            elif bound.spec.guard == GUARD_HIDE:
                _hide_acl_file(bound.full)
        return proceed()


class ReferenceMonitor:
    """The paper's ACL reference monitor, shared by both surfaces.

    Runs the check each :class:`PathArg` declares, audits the decision,
    and raises EACCES on refusal — the handler below never runs.  Paths
    whose driver enforces ACLs server-side (``check_acl`` false) are
    skipped, as are cross-driver pairs after the EXDEV refusal.

    Sets :data:`CROSSED_SYMLINK` in ``op.scratch`` when a resolution of
    the policy's followed a symlink — the checks' own, before the handler
    runs, and any the handler makes through the policy.
    """

    def __init__(self, policy: AclPolicy, audit: AuditSink) -> None:
        self.policy = policy
        self.audit = audit

    def __call__(self, op: Operation, ctx: Any, proceed: Callable[[], Any]) -> Any:
        if len(op.paths) == 2:
            first, second = op.paths
            if (
                first.driver is not None
                and second.driver is not None
                and first.driver is not second.driver
            ):
                raise err(Errno.EXDEV, f"{first.full} -> {second.full}")
        policy = self.policy
        walked = policy.symlinks_walked
        try:
            for bound in op.paths:
                if not bound.check_acl or bound.spec.check == CHECK_NONE:
                    continue
                self._check_path(op, bound)
            if policy.symlinks_walked != walked:
                op.scratch[CROSSED_SYMLINK] = True
            return proceed()
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


class Pipeline:
    """An ordered interceptor chain in front of an operation registry."""

    def __init__(
        self,
        registry: OpRegistry,
        interceptors: list[Interceptor] | None = None,
        audit: AuditSink | None = None,
        health: CircuitBreaker | None = None,
        telemetry: Telemetry | None = None,
        denial_counter: DenialCounter | None = None,
        cache: ReadCache | None = None,
        quota: IdentityQuota | None = None,
    ) -> None:
        self.registry = registry
        self.interceptors: list[Interceptor] = list(interceptors or [])
        self.audit = audit or AuditSink()
        self.health = health
        self.telemetry = telemetry
        self.denial_counter = denial_counter
        self.cache = cache
        self.quota = quota

    def stats(self) -> dict[str, Any]:
        """Cross-cutting pipeline state: breaker health, denials, telemetry.

        Every value is a detached copy — callers may mutate the result
        (sort it, annotate it, json-dump it destructively) without
        corrupting the live breaker or the live histograms.
        """
        out: dict[str, Any] = {}
        if self.health is not None:
            out["health"] = self.health.snapshot()
        if self.denial_counter is not None:
            out["denials"] = self.denial_counter.snapshot()
        if self.cache is not None or self.quota is not None:
            fastlane: dict[str, Any] = {}
            if self.cache is not None:
                fastlane["cache"] = self.cache.snapshot()
            if self.quota is not None:
                fastlane["quota"] = self.quota.snapshot()
            out["fastlane"] = fastlane
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.snapshot()
        return out

    def add_interceptor(self, interceptor: Interceptor, index: int | None = None) -> None:
        """Insert an interceptor (outermost by default, i.e. index 0)."""
        if index is None:
            index = 0
        self.interceptors.insert(index, interceptor)

    def run(self, op: Operation, ctx: Any) -> Any:
        """Send ``op`` down the chain to its handler; returns its result."""
        spec = self.registry.get(op.name)
        op.spec = spec
        # each interceptor's ``proceed`` is the rest of the chain, bound
        # from the handler outwards
        proceed = partial(spec.handler, op, ctx)
        for interceptor in reversed(self.interceptors):
            proceed = partial(interceptor, op, ctx, proceed)
        return proceed()


def build_pipeline(
    registry: OpRegistry,
    *,
    policy: AclPolicy,
    clock=None,
    audit_log: AuditLog | None = None,
    resolve_identity: Callable[[Operation, Any], str | None] | None = None,
    on_denial: Callable[[Operation], None] | None = None,
    health: CircuitBreaker | None = None,
    telemetry: Telemetry | None = None,
    cache: ReadCache | None = None,
    quota: IdentityQuota | None = None,
) -> Pipeline:
    """Compose the standard enforcement chain over ``registry``.

    A :class:`CircuitBreaker` passed as ``health`` slots in right after
    identity resolution, so it can meter per-identity failures before
    any policy work is done for a tripped identity.  A
    :class:`Telemetry` goes outermost: its span and latency histogram
    bracket the entire chain, rejections and denials included.

    The fast lane slots in around the breaker: an :class:`IdentityQuota`
    goes right after identity resolution (admission is decided before
    any work is spent on the op), and a :class:`ReadCache` goes just
    inside the breaker — a hit answers before the ACL-file guard and
    the reference monitor run, a mutating op invalidates on its way
    through.  Both inherit the pipeline's clock/telemetry unless they
    brought their own.
    """
    audit = AuditSink(clock, audit_log)
    denials = DenialCounter(on_denial)
    interceptors: list[Interceptor] = [
        denials,
        IdentityGate(resolve_identity),
    ]
    if quota is not None:
        if quota.clock is None:
            quota.clock = clock
        if quota.telemetry is None:
            quota.telemetry = telemetry
        interceptors.append(quota)
    if health is not None:
        interceptors.append(health)
    if cache is not None:
        if cache.telemetry is None:
            cache.telemetry = telemetry
        interceptors.append(cache)
    interceptors += [AclFileGuard(), ReferenceMonitor(policy, audit)]
    if telemetry is not None:
        interceptors.insert(0, TracingInterceptor(telemetry))
    return Pipeline(
        registry,
        interceptors=interceptors,
        audit=audit,
        health=health,
        telemetry=telemetry,
        denial_counter=denials,
        cache=cache,
        quota=quota,
    )
