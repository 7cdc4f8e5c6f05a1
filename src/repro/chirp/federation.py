"""Federated Chirp: one export namespace sharded across many servers.

One Chirp server is a hard ceiling on namespace size and ops/sec; the
paper's identity model is what makes going multi-server safe.  This
module partitions the export namespace across N simulated servers by
**directory-prefix consistent hashing**: the first component of every
path is hashed onto a token ring built from the shard set, so one
top-level directory lives wholly on one shard, balance comes from many
prefixes, and adding a shard moves only the prefixes whose ring range
the newcomer claims.

The three pieces:

* :class:`ShardMap` — the versioned routing table.  Built from the
  catalog's federation view (:func:`repro.chirp.catalog.federation_members`);
  the catalog bumps the version whenever membership changes, so clients
  can cache the map and cheaply detect staleness on refresh.
* :class:`FederatedClient` — the routing layer.  Holds one
  authenticated :class:`~repro.chirp.client.ChirpClient` per shard
  (lazily connected, all with the *same* credentials — the identity-
  consistency invariant below), resolves each path to its owning shard,
  and exposes the familiar path-level API.  Cross-shard ``rename`` is an
  idempotent two-phase transfer: stage the bytes to a hidden staging
  name on the destination shard (one keyed ``putfile``), commit
  with an idempotency-keyed single-shard ``rename``, then clean up with
  an idempotency-keyed ``unlink`` of the source — every step individually
  safe to retry under the fault layer, so the whole protocol is.
* :func:`deploy_federation` — the server-side harness: N machines, N
  servers (each telemetry-instrumented), one catalog, every shard
  registered with its federation name and ring weight.

**Identity-consistency invariant.**  A federation never mints per-shard
identities: every shard authenticates the same GSI credential to the
same principal string, every ACL names that same string, and therefore
an ACL check is byte-identical no matter which shard serves the path.
The routing layer authenticates each per-shard session with one
authenticator list, and root-ACL administration fans out to every shard
so the policy surface cannot drift.

Telemetry: every routed call runs under a ``fed:<op>`` span carrying a
``shard`` attribute; the per-shard clients share the federation's
:class:`~repro.core.telemetry.Telemetry`, so their ``rpc:*`` spans nest
under the federation span and ride the wire into each shard server —
one trace follows a cross-shard rename from the client through both
shards.  ``fed.ops{op=,shard=}`` counters give per-shard op counts.

**Replication.**  With ``ShardMap.replicas = k > 1`` every directory
prefix is owned by the first *k* distinct shards clockwise from its ring
point (successor placement): adding or losing a shard still only shifts
ring ranges, and ``k = 1`` is exactly the old single-owner federation.
Writes are **quorum writes** — applied to every replica in placement
order, succeeding once a strict majority answered definitely; each
per-shard session mints its own idempotency keys, so retried writes ride
the existing replay caches.  A replica that was unreachable gets the
write appended to the writing client's *missed-write log*.  Reads are
**failover reads** — primary first, replica peers on unavailability,
with catalog-suspected shards demoted to last — and a client replays
its own log onto a replica before its next op there (read repair).
Any other client can read the replica first, so a quorum write can be
followed by a stale read (ROADMAP item 1; pinned by
``test_stale_read_after_a_quorum_write``).  Server-side,
:meth:`Federation.repair_shard` is the anti-entropy path: a rejoining
shard pulls what it missed from its replica peers by manifest diff,
through the same two-phase staging protocol cross-shard renames use,
before it re-advertises.  ``repl.*`` counters account for all of it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..core.acl import ACL_FILE_NAME
from ..core.pipeline import ReadCache
from ..core.telemetry import CounterView, HandleCache, Telemetry, instrument
from ..kernel.errno import Errno, KernelError
from ..kernel.vfs import dirname, join, normalize
from ..net.network import Network
from .catalog import (
    CATALOG_PORT,
    CatalogRecord,
    CatalogServer,
    advertise,
    federation_members,
)
from .client import ChirpClient
from .protocol import CHIRP_PORT, FED_XFER_SUFFIX, ChirpError, StatPayload
from .retry import as_chirp_error, is_unavailable, quorum
from .server import ChirpServer, write_file

if TYPE_CHECKING:  # pragma: no cover
    from ..core.acl import Acl
    from ..net.cluster import Cluster
    from .auth import ClientAuthenticator, ServerAuth
    from .retry import RetryPolicy

#: Virtual nodes per unit of ring weight: enough for good balance at a
#: handful of shards without making map construction noticeable.
DEFAULT_VNODES = 64

#: Most prefix placements one :class:`ShardMap` remembers; a full memo
#: starts over.
PLACEMENT_MEMO_ENTRIES = 4096


def ring_hash(key: str) -> int:
    """A stable 64-bit hash (never the builtin ``hash``: routing must be
    identical across processes and PYTHONHASHSEED values)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


def path_prefix(path: str) -> str:
    """The routing key: the first component of the normalized path
    ("" for the root itself)."""
    norm = normalize(path if path.startswith("/") else "/" + path)
    if norm == "/":
        return ""
    return norm.split("/", 2)[1]


@dataclass(frozen=True)
class ShardInfo:
    """One member of a federation, as routing sees it."""

    name: str  #: catalog name (hostname:port)
    hostname: str
    port: int = CHIRP_PORT
    weight: int = 1
    #: the catalog's failure detector flagged this shard (missed
    #: heartbeats): still placed on the ring, demoted in routing order
    suspect: bool = False

    @classmethod
    def from_record(cls, record: CatalogRecord) -> "ShardInfo":
        return cls(
            name=record.name,
            hostname=record.hostname,
            port=record.port,
            weight=max(1, record.weight),
            suspect=record.suspect,
        )


def route_order(replicas: tuple[ShardInfo, ...]) -> tuple[ShardInfo, ...]:
    """Attempt order over a replica set: placement order, but shards the
    catalog suspects are demoted to last (stable within each class) —
    clients route around a likely-dead shard without moving any data."""
    return tuple(s for s in replicas if not s.suspect) + tuple(
        s for s in replicas if s.suspect
    )


@dataclass(frozen=True)
class ShardMap:
    """The versioned routing table: prefixes → shards, via a token ring.

    Deterministic by construction: tokens are stable hashes of
    ``"<shard name>#<i>"``, lookups are stable hashes of the path's
    first component, so every client (and every run) routes a given
    path to the same shard for a given membership.
    """

    federation: str
    version: int
    shards: tuple[ShardInfo, ...]
    vnodes: int = DEFAULT_VNODES
    #: owners per prefix (successor placement); 1 = single-owner routing
    replicas: int = 1

    @classmethod
    def from_records(
        cls,
        federation: str,
        version: int,
        records: list[CatalogRecord],
        vnodes: int = DEFAULT_VNODES,
        replicas: int = 1,
    ) -> "ShardMap":
        shards = tuple(
            sorted((ShardInfo.from_record(r) for r in records), key=lambda s: s.name)
        )
        return cls(
            federation=federation,
            version=version,
            shards=shards,
            vnodes=vnodes,
            replicas=replicas,
        )

    @cached_property
    def _ring(self) -> tuple[tuple[int, ...], tuple[ShardInfo, ...]]:
        tokens: list[tuple[int, str, ShardInfo]] = []
        for shard in self.shards:
            for i in range(self.vnodes * shard.weight):
                tokens.append((ring_hash(f"{shard.name}#{i}"), shard.name, shard))
        tokens.sort()
        return (
            tuple(t[0] for t in tokens),
            tuple(t[2] for t in tokens),
        )

    @cached_property
    def _placements(self) -> dict[str, tuple[ShardInfo, ...]]:
        """Prefix -> replica set, filled by :meth:`replicas_for_prefix`.
        The map is frozen, so a placement never goes stale; a new map
        version is a new object and starts empty."""
        return {}

    def replicas_for_prefix(self, prefix: str) -> tuple[ShardInfo, ...]:
        """The ordered replica set owning one prefix: the first
        ``replicas`` *distinct* shards clockwise from the prefix's ring
        point (successor placement).  The first entry is the primary —
        identical to the single owner a ``replicas=1`` map names.  At
        most :data:`PLACEMENT_MEMO_ENTRIES` placements are remembered."""
        memo = self._placements
        placed = memo.get(prefix)
        if placed is None:
            placed = self._place(prefix)
            if len(memo) >= PLACEMENT_MEMO_ENTRIES:
                memo.clear()
            memo[prefix] = placed
        return placed

    def _place(self, prefix: str) -> tuple[ShardInfo, ...]:
        """Walk the ring for one prefix (the memo's source of truth)."""
        if not self.shards:
            raise ChirpError(Errno.ENOENT, f"federation {self.federation!r} is empty")
        hashes, owners = self._ring
        want = min(max(1, self.replicas), len(self.shards))
        index = bisect_right(hashes, ring_hash(prefix)) % len(hashes)
        chosen: list[ShardInfo] = []
        seen: set[str] = set()
        for step in range(len(hashes)):
            owner = owners[(index + step) % len(hashes)]
            if owner.name in seen:
                continue
            seen.add(owner.name)
            chosen.append(owner)
            if len(chosen) == want:
                break
        return tuple(chosen)

    def replicas_for(self, path: str) -> tuple[ShardInfo, ...]:
        """The replica set owning ``path`` (its whole top-level directory)."""
        return self.replicas_for_prefix(path_prefix(path))

    def shard_for_prefix(self, prefix: str) -> ShardInfo:
        return self.replicas_for_prefix(prefix)[0]

    def shard_for(self, path: str) -> ShardInfo:
        """The primary shard owning ``path``."""
        return self.shard_for_prefix(path_prefix(path))

    def names(self) -> list[str]:
        return [s.name for s in self.shards]

    def describe(self) -> str:
        """A one-line-per-shard rendering for examples and debugging."""
        lines = [f"federation {self.federation!r} v{self.version}: "
                 f"{len(self.shards)} shard(s), {self.vnodes} vnodes/weight, "
                 f"{self.replicas} replica(s)/prefix"]
        for shard in self.shards:
            lines.append(
                f"  {shard.name}  host={shard.hostname}:{shard.port}  "
                f"weight={shard.weight}"
                + ("  SUSPECT" if shard.suspect else "")
            )
        return "\n".join(lines)


class FederatedClient:
    """Path-level Chirp API over a sharded namespace.

    Every public operation resolves its path through the cached
    :class:`ShardMap` and delegates to that shard's authenticated
    client.  Operations on the root ("/") that are namespace-wide —
    ``readdir`` and ``setacl`` — fan out across every shard (listing is
    the union; policy administration applies everywhere, preserving the
    identity-consistency invariant).
    """

    def __init__(
        self,
        network: Network,
        client_host: str,
        shard_map: ShardMap,
        authenticators: "list[ClientAuthenticator]",
        *,
        retry: "RetryPolicy | None" = None,
        telemetry: Telemetry | None = None,
        catalog_host: str = "",
        catalog_port: int = CATALOG_PORT,
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.shard_map = shard_map
        self.authenticators = list(authenticators)
        self.retry = retry
        self.telemetry = telemetry
        #: the one store of the routing layer's counts (a private registry,
        #: which its shard sessions never see, when telemetry is None)
        self.metrics = telemetry if telemetry is not None else Telemetry(network.clock)
        self._counters = HandleCache("counter", "op", "shard")
        self.catalog_host = catalog_host
        self.catalog_port = catalog_port
        metrics = self.metrics
        #: read-only; the replication fields stay zero on a replicas=1 map
        self.stats = CounterView(
            metrics,
            routed=lambda: metrics.counter_by("fed.ops", "shard"),
            map_refreshes="fed.map_refreshes",
            map_rebuilds="fed.map_rebuilds",
            transfers="fed.transfers",
            transfer_bytes="fed.transfer_bytes",
            quorum_writes="repl.quorum_writes",
            quorum_failures="repl.quorum_failures",
            failover_reads="repl.failover_reads",
            read_repairs="repl.read_repairs",
            missed_writes="repl.missed_writes",
        )
        self._clients: dict[str, ChirpClient] = {}
        #: per-replica missed-write log: writes a replica was unreachable
        #: for, replayed (in order) before that replica next serves
        self._missed: dict[str, list[tuple[str, Callable[[ChirpClient], Any]]]] = {}

    # ------------------------------------------------------------------ #
    # construction and the shard-map cache
    # ------------------------------------------------------------------ #

    @classmethod
    def connect(
        cls,
        network: Network,
        client_host: str,
        federation: str,
        catalog_host: str,
        authenticators: "list[ClientAuthenticator]",
        *,
        catalog_port: int = CATALOG_PORT,
        retry: "RetryPolicy | None" = None,
        telemetry: Telemetry | None = None,
        vnodes: int = DEFAULT_VNODES,
        replicas: int = 1,
    ) -> "FederatedClient":
        """Fetch the shard map from the catalog and build the client."""
        version, records = federation_members(
            network, client_host, federation, catalog_host, catalog_port
        )
        shard_map = ShardMap.from_records(
            federation, version, records, vnodes, replicas=replicas
        )
        return cls(
            network,
            client_host,
            shard_map,
            authenticators,
            retry=retry,
            telemetry=telemetry,
            catalog_host=catalog_host,
            catalog_port=catalog_port,
        )

    def refresh_map(self) -> bool:
        """Re-fetch the federation view; rebuild the map if the catalog's
        membership version moved.  Returns whether the map changed.

        This is the cache-invalidation path: sessions to shards that are
        still members are kept (their descriptors and replay state
        survive), sessions to departed shards are closed.
        """
        if not self.catalog_host:
            raise ChirpError(Errno.EINVAL, "federated client has no catalog")
        self._inc("fed.map_refreshes")
        version, records = federation_members(
            self.network,
            self.client_host,
            self.shard_map.federation,
            self.catalog_host,
            self.catalog_port,
        )
        if version == self.shard_map.version:
            return False
        self.shard_map = ShardMap.from_records(
            self.shard_map.federation,
            version,
            records,
            self.shard_map.vnodes,
            replicas=self.shard_map.replicas,
        )
        keep = set(self.shard_map.names())
        for name in [n for n in self._clients if n not in keep]:
            self._clients.pop(name).close()
        for name in [n for n in self._missed if n not in keep]:
            del self._missed[name]  # a departed shard's log is moot
        self._inc("fed.map_rebuilds")
        return True

    def close(self) -> None:
        """Tear down every per-shard session; never raises.

        Some sessions may be to shards that died or blacked out mid-run
        (their transport is already broken); a failed goodbye on one must
        not leave the remaining sessions dangling."""
        for client in self._clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 - dead session, nothing to save
                pass
        self._clients.clear()
        self._missed.clear()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def shard_of(self, path: str) -> str:
        return self.shard_map.shard_for(path).name

    def replica_names(self, path: str) -> tuple[str, ...]:
        """The ordered replica set (by name) owning ``path``'s prefix."""
        return tuple(s.name for s in self.shard_map.replicas_for(path))

    def client_for(self, path: str) -> tuple[ChirpClient, str]:
        """The authenticated per-shard client owning ``path``."""
        shard = self.shard_map.shard_for(path)
        return self._client(shard), shard.name

    def _client(self, shard: ShardInfo) -> ChirpClient:
        client = self._clients.get(shard.name)
        if client is None:
            client = ChirpClient.connect(
                self.network,
                self.client_host,
                shard.hostname,
                shard.port,
                retry=self.retry,
                telemetry=self.telemetry,
                label=shard.name,
            )
            client.authenticate(self.authenticators)
            self._clients[shard.name] = client
        return client

    def _inc(self, name: str, op: str = "", shard: str = "", value: int = 1) -> None:
        self._counters.get(self.metrics, name, op, shard).inc(value)

    def _span(self, op: str, **attrs: Any):
        t = self.telemetry
        if t is None or not t.enabled:
            return None
        return t.start_span(f"fed:{op}", surface="chirp-fed", **attrs)

    def _end(self, span, status: str = "ok") -> None:
        if self.telemetry is not None:
            self.telemetry.end_span(span, status=status)

    # ------------------------------------------------------------------ #
    # replicated delegation: failover reads, quorum writes, read repair
    # ------------------------------------------------------------------ #

    def _attempt(
        self,
        op: str,
        shard: ShardInfo,
        call: Callable[[ChirpClient], Any],
        count: bool = True,
    ) -> Any:
        """One replica attempt: count it, connect, replay what the
        replica missed while dark, then run the operation."""
        if count:
            self._inc("fed.ops", op, shard.name)
        client = self._client(shard)
        self._replay_missed(shard, client)
        return call(client)

    def _failover(
        self,
        op: str,
        ordered: tuple[ShardInfo, ...],
        call: Callable[[ChirpClient], Any],
        count: bool = True,
    ) -> Any:
        """A read: first replica to answer definitely wins; an
        unreachable replica is skipped (failover) as long as peers
        remain.  With one replica this is the old single-owner call."""
        last: ChirpError | None = None
        for index, shard in enumerate(ordered):
            try:
                return self._attempt(op, shard, call, count=count)
            except (ChirpError, KernelError) as exc:
                error = as_chirp_error(exc)
                if is_unavailable(error) and index + 1 < len(ordered):
                    last = error
                    self._inc("repl.failover_reads", op, shard.name)
                    continue
                raise error from exc
        raise last  # pragma: no cover - loop always raises or returns

    def _quorum(
        self,
        op: str,
        ordered: tuple[ShardInfo, ...],
        call: Callable[[ChirpClient], Any],
        count: bool = True,
    ) -> Any:
        """A write: apply to every replica, demand a strict majority of
        definite answers, and log the write for replicas that were
        unreachable so they converge later.  The verdict — result or
        error — is the first definite outcome in attempt order (replicas
        are deterministic, so definite outcomes agree)."""
        need = quorum(len(ordered))
        definite: list[tuple[ChirpError | None, Any]] = []
        downs: list[tuple[ShardInfo, ChirpError]] = []
        for shard in ordered:
            try:
                definite.append((None, self._attempt(op, shard, call, count=count)))
            except (ChirpError, KernelError) as exc:
                error = as_chirp_error(exc)
                if is_unavailable(error):
                    downs.append((shard, error))
                else:
                    definite.append((error, None))
        for shard, _error in downs:
            self._log_missed(shard, op, call)
        if len(definite) < need:
            if not definite:
                raise downs[0][1]  # replicas=1: surface the original error
            self._inc("repl.quorum_failures", op)
            raise ChirpError(
                Errno.EAGAIN,
                f"{op}: only {len(definite)} of the {need} replica answers"
                " a write quorum needs",
            )
        if len(ordered) > 1:
            self._inc("repl.quorum_writes", op)
        error, result = definite[0]
        if error is not None:
            raise error
        return result

    def _replay_missed(self, shard: ShardInfo, client: ChirpClient) -> None:
        """Read repair: re-apply, in order, every write this replica
        missed while unreachable.  Unavailability propagates (the
        replica is still dark; the caller fails over); a definite error
        means the state is already there — typically because anti-entropy
        repair ran first — and counts as converged."""
        entries = self._missed.get(shard.name)
        if not entries:
            return
        while entries:
            _op, apply = entries[0]
            try:
                apply(client)
            except (ChirpError, KernelError) as exc:
                error = as_chirp_error(exc)
                if is_unavailable(error):
                    raise error from exc
            entries.pop(0)
        del self._missed[shard.name]
        self._inc("repl.read_repairs", shard=shard.name)

    def _log_missed(
        self, shard: ShardInfo, op: str, apply: Callable[[ChirpClient], Any]
    ) -> None:
        self._missed.setdefault(shard.name, []).append((op, apply))
        self._inc("repl.missed_writes", op, shard.name)

    def _delegated(self, op: str, path: str, call: Callable[[ChirpClient], Any]) -> Any:
        """Route a read: primary first, replica peers on unavailability."""
        ordered = route_order(self.shard_map.replicas_for(path))
        span = self._span(op, shard=ordered[0].name, path=path)
        status = "ok"
        try:
            return self._failover(op, ordered, call)
        except ChirpError as exc:
            status = exc.errno.name
            raise
        finally:
            self._end(span, status=status)

    def _mutating(self, op: str, path: str, call: Callable[[ChirpClient], Any]) -> Any:
        """Route a write: quorum across the path's replica set."""
        ordered = route_order(self.shard_map.replicas_for(path))
        span = self._span(op, shard=ordered[0].name, path=path)
        status = "ok"
        try:
            return self._quorum(op, ordered, call)
        except ChirpError as exc:
            status = exc.errno.name
            raise
        finally:
            self._end(span, status=status)

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #

    def whoami(self) -> str:
        return self._delegated("whoami", "/", lambda c: c.whoami())

    def whoami_all(self) -> dict[str, str]:
        """The authenticated principal at *every* shard — the identity-
        consistency invariant, observable."""
        return {
            shard.name: self._client(shard).whoami() for shard in self.shard_map.shards
        }

    def assert_identity_consistent(self) -> str:
        """Every shard must agree on who this client is; returns the
        (single) principal or raises."""
        principals = set(self.whoami_all().values())
        if len(principals) != 1:
            raise ChirpError(
                Errno.EACCES,
                f"identity diverged across shards: {sorted(principals)}",
            )
        return principals.pop()

    # ------------------------------------------------------------------ #
    # path-level API (same verbs as ChirpClient)
    # ------------------------------------------------------------------ #

    def stat(self, path: str) -> StatPayload:
        return self._delegated("stat", path, lambda c: c.stat(path))

    def lstat(self, path: str) -> StatPayload:
        return self._delegated("lstat", path, lambda c: c.lstat(path))

    def access(self, path: str, letters: str = "l") -> bool:
        return self._delegated("access", path, lambda c: c.access(path, letters))

    def readlink(self, path: str) -> str:
        return self._delegated("readlink", path, lambda c: c.readlink(path))

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._mutating("mkdir", path, lambda c: c.mkdir(path, mode))

    def rmdir(self, path: str) -> None:
        self._mutating("rmdir", path, lambda c: c.rmdir(path))

    def unlink(self, path: str) -> None:
        self._mutating("unlink", path, lambda c: c.unlink(path))

    def truncate(self, path: str, length: int) -> None:
        self._mutating("truncate", path, lambda c: c.truncate(path, length))

    def put(self, data: bytes, path: str, mode: int = 0o644) -> int:
        return self._mutating("put", path, lambda c: c.put(data, path, mode))

    def get(self, path: str) -> bytes:
        return self._delegated("get", path, lambda c: c.get(path))

    def getacl(self, path: str) -> str:
        return self._delegated("getacl", path, lambda c: c.getacl(path))

    def aclcheck(self, path: str, letters: str) -> bool:
        return self._delegated("aclcheck", path, lambda c: c.aclcheck(path, letters))

    def getacl_all(self, path: str = "/") -> dict[str, str]:
        """One path's ACL as every shard renders it (for invariance checks)."""
        return {
            shard.name: self._client(shard).getacl(path)
            for shard in self.shard_map.shards
        }

    def setacl(self, path: str, subject: str, rights: str) -> None:
        """Set an ACL entry; on the root this fans out to every shard so
        the namespace-wide policy surface cannot drift apart.  On a
        replicated map an unreachable shard gets the root entry logged
        as a missed write rather than failing the whole fan-out."""
        if path_prefix(path) == "":
            span = self._span("setacl", path=path, fanout=len(self.shard_map.shards))
            try:
                for shard in self.shard_map.shards:
                    self._inc("fed.ops", "setacl", shard.name)
                    try:
                        client = self._client(shard)
                        self._replay_missed(shard, client)
                        client.setacl(path, subject, rights)
                    except (ChirpError, KernelError) as exc:
                        if self.shard_map.replicas > 1 and is_unavailable(
                            as_chirp_error(exc)
                        ):
                            self._log_missed(
                                shard,
                                "setacl",
                                lambda c: c.setacl(path, subject, rights),
                            )
                            continue
                        raise as_chirp_error(exc) from exc
            finally:
                self._end(span)
            return
        self._mutating("setacl", path, lambda c: c.setacl(path, subject, rights))

    def readdir(self, path: str) -> list[str]:
        """List a directory; the root is the union across every shard.

        In-flight transfer staging names are shielded the way ACL files
        are: a half-finished migration is never visible to listings.  On
        a replicated map a dark shard is skipped — every prefix it owns
        is still listed by its replica peers.
        """
        if path_prefix(path) == "":
            span = self._span("readdir", path=path, fanout=len(self.shard_map.shards))
            try:
                names: set[str] = set()
                for shard in self.shard_map.shards:
                    self._inc("fed.ops", "readdir", shard.name)
                    try:
                        client = self._client(shard)
                        self._replay_missed(shard, client)
                        names.update(client.readdir(path))
                    except (ChirpError, KernelError) as exc:
                        if self.shard_map.replicas > 1 and is_unavailable(
                            as_chirp_error(exc)
                        ):
                            self._inc("repl.failover_reads", "readdir", shard.name)
                            continue
                        raise as_chirp_error(exc) from exc
            finally:
                self._end(span)
        else:
            names = set(self._delegated("readdir", path, lambda c: c.readdir(path)))
        return sorted(n for n in names if not n.endswith(FED_XFER_SUFFIX))

    def symlink(self, target: str, linkpath: str) -> None:
        # a relative target names a path beside the link, as servers resolve it
        where = target if target.startswith("/") else join(dirname(linkpath), target)
        if self.replica_names(where) != self.replica_names(linkpath):
            raise ChirpError(
                Errno.EXDEV, "symlink target on a different shard would dangle"
            )
        self._mutating("symlink", linkpath, lambda c: c.symlink(target, linkpath))

    def link(self, oldpath: str, newpath: str) -> None:
        if self.replica_names(oldpath) != self.replica_names(newpath):
            raise ChirpError(Errno.EXDEV, "hard link across federation shards")
        self._mutating("link", oldpath, lambda c: c.link(oldpath, newpath))

    def exec(self, path: str, args: list[str] | None = None, cwd: str = "/") -> int:
        if path_prefix(cwd) != "" and self.replica_names(cwd) != self.replica_names(
            path
        ):
            raise ChirpError(
                Errno.EXDEV, "exec cwd and program live on different shards"
            )
        # exec mutates server-side state (the program's output files), so
        # it is quorum-written like any other write: every replica runs
        # the (deterministic) program, keeping their exports convergent
        return self._mutating("exec", path, lambda c: c.exec(path, args, cwd))

    # ------------------------------------------------------------------ #
    # rename: same-shard delegation or idempotent two-phase transfer
    # ------------------------------------------------------------------ #

    def rename(self, oldpath: str, newpath: str) -> None:
        src = self.shard_map.replicas_for(oldpath)
        dst = self.shard_map.replicas_for(newpath)
        if tuple(s.name for s in src) == tuple(d.name for d in dst):
            self._mutating("rename", oldpath, lambda c: c.rename(oldpath, newpath))
            return
        self._transfer_rename(oldpath, newpath, src, dst)

    def _transfer_rename(
        self,
        oldpath: str,
        newpath: str,
        src: tuple[ShardInfo, ...],
        dst: tuple[ShardInfo, ...],
    ) -> None:
        """Move one file between shard (replica set)s, safely under retries.

        Phase 1 (stage): read the source — a failover read, any live
        source replica serves — and write it to a hidden staging name on
        the destination; each is one whole-file RPC (``getfile``, then a
        keyed ``putfile``), so a connection death or shard restart
        mid-transfer retries the whole op.  Phase 2 (commit): a single-shard
        ``rename`` of staging → destination, carrying an idempotency
        key, makes the new name appear exactly once; the keyed ``unlink``
        of the source then retires the old name.  A retry of any step
        replays from the shard's idempotency cache rather than
        re-applying, so the transfer can neither lose the file nor
        duplicate it.  On replicated maps the staging, commit, and
        cleanup steps are quorum writes over their replica sets.
        """
        for shard in (*src, *dst):
            self._inc("fed.ops", "rename", shard.name)
        span = self._span(
            "rename", shard=dst[0].name, from_shard=src[0].name,
            to_shard=dst[0].name, path=oldpath,
        )
        try:
            src_order = route_order(src)
            dst_order = route_order(dst)
            mode = (
                self._failover(
                    "rename", src_order, lambda c: c.stat(oldpath), count=False
                ).mode
                or 0o644
            )
            data = self._failover(
                "rename", src_order, lambda c: c.get(oldpath), count=False
            )
            staging = newpath + FED_XFER_SUFFIX
            self._quorum(
                "rename",
                dst_order,
                lambda c: c.put(data, staging, mode=mode),
                count=False,
            )
            self._quorum(  # keyed commit
                "rename",
                dst_order,
                lambda c: c.rename(staging, newpath),
                count=False,
            )
            self._quorum(  # keyed cleanup
                "rename", src_order, lambda c: c.unlink(oldpath), count=False
            )
            self._inc("fed.transfers")
            self._inc("fed.transfer_bytes", value=len(data))
        except ChirpError as exc:
            self._end(span, status=exc.errno.name)
            span = None
            raise
        finally:
            if span is not None:
                self._end(span)

    # ------------------------------------------------------------------ #
    # observability conveniences
    # ------------------------------------------------------------------ #

    def per_shard_ops(self) -> dict[str, int]:
        """Client-side routed-op counts per shard (from ``fed.ops``)."""
        return self.stats.routed


# --------------------------------------------------------------------- #
# server-side deployment harness
# --------------------------------------------------------------------- #


@dataclass
class ShardDeployment:
    """One deployed shard: its server plus its machine's telemetry."""

    server: ChirpServer
    telemetry: Telemetry
    weight: int = 1

    @property
    def name(self) -> str:
        return f"{self.server.hostname}:{self.server.port}"

    def busy_ns(self) -> int:
        """Total server-side processing time (the parallel-wall-clock
        model's per-shard load): the sum over this shard's pipeline
        latency histograms."""
        return sum(
            hist.sum
            for _key, hist in self.telemetry.histograms_named("pipeline.latency_ns")
        )

    def ops_served(self) -> int:
        return self.telemetry.counter_total("pipeline.ops")


@dataclass
class Federation:
    """A deployed federation: catalog + shards, with ops helpers."""

    name: str
    cluster: "Cluster"
    catalog: CatalogServer
    catalog_host: str
    shards: dict[str, ShardDeployment]
    #: owners per directory prefix (what clients should route with)
    replicas: int = 1

    def servers(self) -> Iterator[ChirpServer]:
        for deployment in self.shards.values():
            yield deployment.server

    def register_program(self, program_name: str, body) -> None:
        """Install a named program on every shard machine (for ``exec``)."""
        for deployment in self.shards.values():
            deployment.server.machine.register_program(program_name, body)

    def per_shard_op_counts(self) -> dict[str, int]:
        """Server-side pipeline op counts per shard, from telemetry."""
        return {name: d.ops_served() for name, d in sorted(self.shards.items())}

    def per_shard_busy_ns(self) -> dict[str, int]:
        return {name: d.busy_ns() for name, d in sorted(self.shards.items())}

    def advertise_all(self, from_host: str | None = None) -> None:
        """One heartbeat round: every shard re-reports to the catalog."""
        for deployment in self.shards.values():
            server = deployment.server
            advertise(
                self.cluster.network,
                from_host or server.hostname,
                server,
                self.catalog_host,
                catalog_port=self.catalog.port,
                federation=self.name,
                weight=deployment.weight,
            )

    def restart_shard(self, shard_name: str) -> None:
        """Crash one shard's service and bring it straight back: live
        connections break, the port keeps listening again, and the shard
        re-registers with the catalog (the re-registration path a
        restarted server must have)."""
        deployment = self.shards[shard_name]
        server = deployment.server
        self.cluster.crash_server(server.hostname, server.port)
        server.serve()
        advertise(
            self.cluster.network,
            server.hostname,
            server,
            self.catalog_host,
            catalog_port=self.catalog.port,
            federation=self.name,
            weight=deployment.weight,
        )

    # ------------------------------------------------------------------ #
    # replication ops: blackout drills and anti-entropy repair
    # ------------------------------------------------------------------ #

    def placement(self) -> ShardMap:
        """The deterministic replica placement over the *deployed* shard
        set.  Deliberately catalog-independent: repair must reason about
        a shard even while the catalog holds it suspect or evicted."""
        records = [
            CatalogRecord(
                name=d.name,
                hostname=d.server.hostname,
                port=d.server.port,
                owner="",
                federation=self.name,
                weight=d.weight,
            )
            for d in self.shards.values()
        ]
        return ShardMap.from_records(self.name, 0, records, replicas=self.replicas)

    def blackout_shard(self, shard_name: str, start_op: int, end_op: int):
        """Schedule one shard's whole-endpoint outage window (the
        kill-mid-run drill): while the installed fault plan's op counter
        is inside ``[start_op, end_op)`` the shard refuses everything."""
        server = self.shards[shard_name].server
        return self.cluster.schedule_blackout(
            server.port, start_op, end_op, host=server.hostname
        )

    def repair_shard(self, shard_name: str) -> dict[str, int]:
        """Anti-entropy: converge a rejoining shard's export with its
        replica peers.

        For every top-level prefix the shard replicates, the first
        *other* replica in placement order is the donor; the donor's
        export manifest is authoritative.  Files that differ (by mode,
        size, or content digest) are staged under the hidden transfer
        suffix and committed with a rename — the same two-phase protocol
        cross-shard renames use, so a crash mid-repair is invisible —
        and entries the donor no longer has are removed (a missed
        ``unlink``/``rename`` shows up as surplus).  The shared root ACL
        file converges from the first live peer.
        """
        placement = self.placement()
        target = self.shards[shard_name]
        totals = {"prefixes": 0, "copied": 0, "bytes": 0, "removed": 0}
        peers = [n for n in sorted(self.shards) if n != shard_name]
        if not peers:
            return totals
        manifests = {shard_name: target.server.export_manifest()}

        def manifest_of(name: str) -> dict[str, tuple]:
            if name not in manifests:
                manifests[name] = self.shards[name].server.export_manifest()
            return manifests[name]

        # the shared root ACL: every shard carries it, any live peer is
        # an authoritative donor
        self._sync_subtree(
            peers[0], shard_name, "/" + ACL_FILE_NAME, manifest_of, totals
        )
        prefixes: set[str] = set()
        for peer in peers:
            for path in manifest_of(peer):
                prefix = path.split("/", 2)[1]
                if prefix != ACL_FILE_NAME:
                    prefixes.add(prefix)
        for prefix in sorted(prefixes):
            owners = [s.name for s in placement.replicas_for_prefix(prefix)]
            if shard_name not in owners:
                continue
            donors = [n for n in owners if n != shard_name]
            if not donors:
                continue
            totals["prefixes"] += 1
            self._sync_subtree(donors[0], shard_name, "/" + prefix, manifest_of, totals)
        target.server.policy.invalidate_all()  # repaired ACL bytes win
        if target.server.read_cache is not None:
            # repair wrote through target.fs, below the pipeline: the
            # fast lane never saw those mutations, so memoized verdicts
            # on this replica may now be stale — flush them wholesale
            target.server.read_cache.invalidate_all()
            target.telemetry.counter_inc("fastlane.cache.cross_shard_flushes")
        telemetry = target.telemetry
        telemetry.counter_inc("repl.repairs")
        telemetry.counter_inc("repl.repair_files", value=totals["copied"])
        telemetry.counter_inc("repl.repair_bytes", value=totals["bytes"])
        telemetry.counter_inc("repl.repair_removed", value=totals["removed"])
        return totals

    def _sync_subtree(
        self,
        donor_name: str,
        target_name: str,
        vroot: str,
        manifest_of,
        totals: dict[str, int],
    ) -> None:
        """Mirror one subtree of the donor's export onto the target."""
        donor = self.shards[donor_name].server
        target = self.shards[target_name].server
        in_tree = lambda p: p == vroot or p.startswith(vroot + "/")  # noqa: E731
        want = {p: e for p, e in manifest_of(donor_name).items() if in_tree(p)}
        have = {p: e for p, e in manifest_of(target_name).items() if in_tree(p)}
        # surplus first, children before parents, so rmdir finds empties
        for path in sorted(set(have) - set(want), reverse=True):
            if have[path][0] == "dir":
                target.fs.rmdir(target.real_path(path))
            else:
                target.fs.unlink(target.real_path(path))
            totals["removed"] += 1
        # then the donor's tree, parents before children
        for path in sorted(want):
            entry = want[path]
            current = have.get(path)
            if entry == current:
                continue
            real = target.real_path(path)
            if entry[0] == "dir":
                if current is None:
                    target.fs.mkdir(real, entry[1])
                continue
            if current is not None and current[0] == "dir":
                target.fs.rmdir(real)
                current = None
            if entry[0] == "link":
                if current is not None:
                    target.fs.unlink(real)
                target.fs.symlink(target.real_path(entry[1]), real)
                continue
            data = donor.read_export_file(path)
            staging = real + FED_XFER_SUFFIX
            write_file(target.fs, staging, data, entry[1])
            target.fs.rename(staging, real)  # two-phase commit
            totals["copied"] += 1
            totals["bytes"] += len(data)

    def rejoin_shard(self, shard_name: str) -> dict[str, int]:
        """A dark shard coming back: pull missed state from replica
        peers *first*, then re-advertise — clients never get routed to
        an unrepaired replica."""
        totals = self.repair_shard(shard_name)
        deployment = self.shards[shard_name]
        advertise(
            self.cluster.network,
            deployment.server.hostname,
            deployment.server,
            self.catalog_host,
            catalog_port=self.catalog.port,
            federation=self.name,
            weight=deployment.weight,
        )
        return totals


def deploy_federation(
    cluster: "Cluster",
    name: str,
    n_shards: int,
    *,
    make_auth: "Callable[[], ServerAuth]",
    root_acl: "Acl",
    catalog: CatalogServer | None = None,
    catalog_host: str = "",
    port: int = CHIRP_PORT,
    owner_basename: str = "keeper",
    weights: "tuple[int, ...] | None" = None,
    host_pattern: str = "shard{i}.{name}",
    replicas: int = 1,
    read_cache: bool = False,
) -> Federation:
    """Stand up a sharded control plane on a cluster.

    Provisions one machine per shard (``shard<i>.<name>``), runs a
    telemetry-instrumented :class:`ChirpServer` on each under its own
    unprivileged operator, applies the *same* root ACL everywhere (the
    identity-consistency invariant starts here), and registers every
    shard in the catalog under the federation's name.  ``read_cache``
    gives every shard its own fast-lane :class:`ReadCache`.
    """
    if n_shards < 1:
        raise ValueError("a federation needs at least one shard")
    if catalog is None:
        catalog_host = catalog_host or f"catalog.{name}"
        cluster.add_machine(catalog_host)
        catalog = CatalogServer(cluster.network, catalog_host)
        catalog.serve()
    elif not catalog_host:
        catalog_host = catalog.hostname
    shards: dict[str, ShardDeployment] = {}
    for i in range(n_shards):
        hostname = host_pattern.format(i=i, name=name)
        machine = cluster.add_machine(hostname)
        telemetry = instrument(machine)
        owner = machine.add_user(f"{owner_basename}{i}")
        server = ChirpServer(
            machine,
            owner,
            network=cluster.network,
            port=port,
            auth=make_auth(),
            telemetry=telemetry,
            read_cache=ReadCache() if read_cache else None,
        )
        server.set_root_acl(root_acl)
        server.serve()
        weight = weights[i] if weights is not None else 1
        advertise(
            cluster.network,
            hostname,
            server,
            catalog_host,
            catalog_port=catalog.port,
            federation=name,
            weight=weight,
        )
        shards[f"{hostname}:{port}"] = ShardDeployment(
            server=server, telemetry=telemetry, weight=weight
        )
    return Federation(
        name=name,
        cluster=cluster,
        catalog=catalog,
        catalog_host=catalog_host,
        shards=shards,
        replicas=max(1, replicas),
    )
