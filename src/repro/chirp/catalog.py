"""The catalog server: discovery and control plane for Chirp servers.

"A collection of Chirp servers report themselves to a catalog, which then
publishes the set of available servers to interested parties" (§4).
Servers push periodic updates; clients list what is fresh.  Staleness is
judged against the shared simulated clock, and expired records are
*evicted* — not merely filtered — so a server that died stays gone until
it re-registers, and a restarted server under a fault schedule never
leaves a ghost entry behind.

Beyond flat discovery the catalog is the federation control plane
(:mod:`repro.chirp.federation`): a record may carry a ``federation``
name plus a ring ``weight``, and the catalog maintains a monotonically
increasing *membership version* per federation — bumped whenever a shard
joins, changes address, is evicted, or is removed.  Clients cache the
shard map they derive from a federation view and use the version to know
when that cache is stale.

Failure detection sits between heartbeat and eviction: a record whose
heartbeats stop is marked **suspect** after ``suspect_after_s`` (long
before the eviction TTL), its federation's version bumps so cached shard
maps refresh, and federation views carry the flag — replicated clients
demote suspect replicas to last in the read/write order, routing around
the likely-dead shard without moving any data (the record stays on the
ring, so placement is stable).  A heartbeat from a suspect — or from a
shard that went silent past the horizon without a sweep noticing —
clears the suspicion with exactly one more version bump.

A **mark** (the ``mark`` op) says a shard missed a replicated write
under one prefix (``""``: the root ACL); a call that changes marks bumps
the version once, views carry them, and routing skips the shard for that
prefix.  No heartbeat, eviction or re-registration clears a mark: only a
rejoin does, after anti-entropy repaired the prefix.  At most one mark
per (shard name, prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..kernel.errno import Errno
from ..kernel.timing import NS_PER_S
from ..net.network import Network, Peer
from ..net.rpc import ProtocolError, decode_message, encode_message
from .protocol import error_response, ok_response, parse_response
from .server import ChirpServer

#: Default catalog port (as in real Chirp deployments).
CATALOG_PORT = 9097

#: Records older than this are considered stale (15 minutes).
DEFAULT_TTL_S = 900

#: Records silent this long are *suspect* (missed-heartbeat horizon):
#: still members, still on the ring, but demoted by replicated routing.
DEFAULT_SUSPECT_S = 300


@dataclass(frozen=True)
class CatalogRecord:
    """What one server advertises about itself."""

    name: str  #: unique server name (usually hostname:port)
    hostname: str
    port: int
    owner: str  #: principal-ish description of the operator
    updated_ns: int = 0
    #: federation this server is a shard of ("" = standalone server)
    federation: str = ""
    #: relative share of the consistent-hash ring within the federation
    weight: int = 1
    #: stamped by the *catalog* when rendering views — a server never
    #: advertises itself suspect; missed heartbeats do
    suspect: bool = False
    #: stamped by the catalog too: the prefixes the shard missed a write
    #: under, sorted ("" is the root ACL)
    marked: tuple[str, ...] = ()

    def to_fields(self) -> dict[str, Any]:
        fields = {
            "name": self.name,
            "hostname": self.hostname,
            "port": self.port,
            "owner": self.owner,
            "updated_ns": self.updated_ns,
            "federation": self.federation,
            "weight": self.weight,
            "suspect": self.suspect,
        }
        if self.marked:  # an unmarked record keeps its old wire size
            fields["marked"] = list(self.marked)
        return fields

    @classmethod
    def from_fields(cls, fields: dict[str, Any]) -> "CatalogRecord":
        return cls(
            name=str(fields["name"]),
            hostname=str(fields["hostname"]),
            port=int(fields["port"]),
            owner=str(fields["owner"]),
            updated_ns=int(fields.get("updated_ns", 0)),
            federation=str(fields.get("federation", "")),
            weight=int(fields.get("weight", 1)),
            suspect=bool(fields.get("suspect", False)),
            marked=tuple(str(p) for p in fields.get("marked", ())),
        )

    def membership_key(self) -> tuple:
        """The fields whose change means the *membership* changed (a
        heartbeat that only refreshes ``updated_ns`` is not a change;
        suspicion is catalog-side state, versioned separately)."""
        return (self.name, self.hostname, self.port, self.federation, self.weight)


class CatalogServer:
    """The directory of available servers and federation memberships."""

    def __init__(
        self,
        network: Network,
        hostname: str,
        port: int = CATALOG_PORT,
        ttl_s: int = DEFAULT_TTL_S,
        suspect_after_s: int = DEFAULT_SUSPECT_S,
    ) -> None:
        self.network = network
        self.hostname = hostname
        self.port = port
        self.ttl_ns = ttl_s * NS_PER_S
        self.suspect_ns = min(suspect_after_s * NS_PER_S, self.ttl_ns)
        self._records: dict[str, CatalogRecord] = {}
        #: per-federation membership version; bumped on join/change/leave
        self._fed_versions: dict[str, int] = {}
        #: names whose heartbeats stopped (failure detector's verdict)
        self._suspects: set[str] = set()
        #: name -> the prefixes it missed a write under, sorted (kept
        #: across eviction and heartbeats)
        self.marked: dict[str, tuple[str, ...]] = {}
        #: eviction accounting (ghost entries reaped by staleness)
        self.evictions: int = 0
        #: suspicion accounting (records demoted by missed heartbeats)
        self.suspicions: int = 0

    def serve(self) -> None:
        self.network.listen(self.hostname, self.port, self._connect)

    def _connect(self, peer: Peer) -> "_CatalogConnection":
        return _CatalogConnection(self)

    # -- handler-side logic ------------------------------------------------ #

    def _bump(self, federation: str) -> None:
        if federation:
            self._fed_versions[federation] = self._fed_versions.get(federation, 0) + 1

    def update(self, record: CatalogRecord) -> None:
        """Register or heartbeat one server.

        Registration after eviction/removal is just another update: the
        record reappears and, if it names a federation, that federation's
        membership version is bumped so cached shard maps refresh.  A
        pure heartbeat (same membership fields) bumps nothing — unless it
        *revives* a shard the failure detector had given up on: a record
        that was marked suspect, or went silent past the suspect horizon
        without a sweep noticing, re-registers with exactly one bump
        (whether or not the eviction sweep ran in between), so cached
        maps refresh once and route through the shard again.
        """
        now_ns = self.network.clock.now_ns
        stamped = CatalogRecord(
            name=record.name,
            hostname=record.hostname,
            port=record.port,
            owner=record.owner,
            updated_ns=now_ns,
            federation=record.federation,
            weight=record.weight,
        )
        previous = self._records.get(record.name)
        self._records[record.name] = stamped
        was_suspect = record.name in self._suspects
        self._suspects.discard(record.name)
        went_silent = (
            previous is not None and previous.updated_ns < now_ns - self.suspect_ns
        )
        if previous is None:
            self._bump(stamped.federation)
        elif previous.membership_key() != stamped.membership_key():
            self._bump(previous.federation)
            if stamped.federation != previous.federation:
                self._bump(stamped.federation)
        elif was_suspect or went_silent:
            self._bump(stamped.federation)

    def remove(self, name: str) -> bool:
        """Explicit deregistration (an operator retiring a server)."""
        record = self._records.pop(name, None)
        if record is None:
            return False
        self._suspects.discard(name)
        self._bump(record.federation)
        return True

    def sweep(self) -> list[str]:
        """Evict every expired record; returns the evicted names.

        Eviction is the staleness fix: a dead server's entry is *gone*
        (its federation's version bumps, shard maps rebuild without it)
        rather than lingering invisible-but-present.  A restarted server
        re-registers through :meth:`update` like any newcomer.

        The same pass runs the failure detector: a record silent past the
        (shorter) suspect horizon but not yet expired is marked suspect —
        one version bump per new verdict, so cached shard maps refresh
        and demote the replica without evicting it from the ring.
        """
        now_ns = self.network.clock.now_ns
        horizon = now_ns - self.ttl_ns
        expired = [n for n, r in self._records.items() if r.updated_ns < horizon]
        for name in expired:
            record = self._records.pop(name)
            self._suspects.discard(name)
            self.evictions += 1
            self._bump(record.federation)
        suspect_horizon = now_ns - self.suspect_ns
        for name, record in self._records.items():
            if record.updated_ns < suspect_horizon and name not in self._suspects:
                self._suspects.add(name)
                self.suspicions += 1
                self._bump(record.federation)
        return expired

    def mark(self, federation: str, marks: list[tuple[str, str]], marked: bool = True) -> int:
        """Set or clear (shard name, prefix) marks; a call that changes any
        bumps the federation's version once.  Returns how many changed (a
        name with no record keeps its marks)."""
        changed = 0
        for name, prefix in marks:
            prefixes = set(self.marked.pop(name, ()))
            if (prefix in prefixes) != marked:
                prefixes ^= {prefix}  # the state differs, so a toggle sets it
                changed += 1
            if prefixes:
                self.marked[name] = tuple(sorted(prefixes))
        if changed:
            self._bump(federation)
        return changed

    def fresh_records(self) -> list[CatalogRecord]:
        self.sweep()
        return sorted(
            (
                replace(r, suspect=r.name in self._suspects, marked=self.marked.get(r.name, ()))
                if r.name in self._suspects or r.name in self.marked
                else r
                for r in self._records.values()
            ),
            key=lambda r: r.name,
        )

    def federation_version(self, federation: str) -> int:
        self.sweep()
        return self._fed_versions.get(federation, 0)

    def federation_view(self, federation: str) -> tuple[int, list[CatalogRecord]]:
        """The live membership of one federation, with its version."""
        members = [r for r in self.fresh_records() if r.federation == federation]
        return self._fed_versions.get(federation, 0), members


@dataclass
class _CatalogConnection:
    catalog: CatalogServer

    def handle(self, frame: bytes) -> bytes:
        try:
            message = decode_message(frame)
            op = message.get("op")
            if op == "update":
                self.catalog.update(CatalogRecord.from_fields(message["record"]))
                return ok_response()
            if op == "remove":
                removed = self.catalog.remove(str(message["name"]))
                return ok_response(removed=removed)
            if op == "mark":
                federation = str(message["federation"])
                marks = [(str(name), str(prefix)) for name, prefix in message["marks"]]
                changed = self.catalog.mark(federation, marks, bool(message["marked"]))
                version = self.catalog.federation_version(federation)
                return ok_response(changed=changed, version=version)
            if op == "list":
                return ok_response(records=[r.to_fields() for r in self.catalog.fresh_records()])
            if op == "federation":
                version, members = self.catalog.federation_view(
                    str(message["federation"])
                )
                return ok_response(version=version, records=[r.to_fields() for r in members])
            return error_response(Errno.EINVAL, f"bad op {op!r}")
        except (ProtocolError, KeyError, TypeError, ValueError) as exc:
            return error_response(Errno.EINVAL, str(exc))

    def on_close(self) -> None:  # pragma: no cover - stateless
        pass


# --------------------------------------------------------------------- #
# client helpers
# --------------------------------------------------------------------- #


def _catalog_call(
    network: Network,
    from_host: str,
    catalog_host: str,
    catalog_port: int,
    message: dict[str, Any],
) -> dict[str, Any]:
    """One catalog op; a refusal raises the catalog's answer as a ChirpError."""
    conn = network.connect(from_host, catalog_host, catalog_port)
    try:
        return parse_response(conn.call(encode_message(message)))
    finally:
        conn.close()


def advertise(
    network: Network,
    from_host: str,
    server: ChirpServer,
    catalog_host: str,
    catalog_port: int = CATALOG_PORT,
    owner: str = "",
    federation: str = "",
    weight: int = 1,
) -> None:
    """One heartbeat: a server reports itself to the catalog."""
    record = CatalogRecord(
        name=f"{server.hostname}:{server.port}",
        hostname=server.hostname,
        port=server.port,
        owner=owner or server.owner_cred.username,
        federation=federation,
        weight=weight,
    )
    _catalog_call(
        network,
        from_host,
        catalog_host,
        catalog_port,
        {"op": "update", "record": record.to_fields()},
    )


def mark_shards(
    network: Network,
    from_host: str,
    federation: str,
    marks: list[tuple[str, str]],
    catalog_host: str,
    catalog_port: int = CATALOG_PORT,
    marked: bool = True,
) -> tuple[int, int]:
    """Report (shard name, prefix) pairs whose write the shard missed
    (``marked=False``: repaired).  Returns the federation's version after
    the report and how many marks it changed."""
    message = {"op": "mark", "federation": federation, "marks": marks, "marked": marked}
    reply = _catalog_call(network, from_host, catalog_host, catalog_port, message)
    return int(reply["version"]), int(reply["changed"])


def list_servers(
    network: Network,
    from_host: str,
    catalog_host: str,
    catalog_port: int = CATALOG_PORT,
) -> list[CatalogRecord]:
    """Ask the catalog for the fresh server set."""
    reply = _catalog_call(
        network, from_host, catalog_host, catalog_port, {"op": "list"}
    )
    return [CatalogRecord.from_fields(f) for f in reply["records"]]


def remove_server(
    network: Network,
    from_host: str,
    name: str,
    catalog_host: str,
    catalog_port: int = CATALOG_PORT,
) -> bool:
    """Explicitly deregister one server by its catalog name."""
    reply = _catalog_call(
        network, from_host, catalog_host, catalog_port, {"op": "remove", "name": name}
    )
    return bool(reply.get("removed"))


def federation_members(
    network: Network,
    from_host: str,
    federation: str,
    catalog_host: str,
    catalog_port: int = CATALOG_PORT,
) -> tuple[int, list[CatalogRecord]]:
    """One federation's live membership and its version, off the wire."""
    reply = _catalog_call(
        network,
        from_host,
        catalog_host,
        catalog_port,
        {"op": "federation", "federation": federation},
    )
    return int(reply["version"]), [
        CatalogRecord.from_fields(f) for f in reply["records"]
    ]
