"""Chirp client library.

Wraps a network connection in the Unix-like protocol: negotiate an
authentication method, then open/read/write/stat files, manage ACLs, and
invoke the remote ``exec``.  ``put``/``get`` are the staging conveniences
Figure 3's workflow uses: one ``putfile``/``getfile`` round trip each.

With a :class:`~repro.chirp.retry.RetryPolicy` attached, the client
survives an unreliable network: every call gets a deadline on the
simulated clock, transient failures back off exponentially (with seeded
jitter) and retry, a dead connection is transparently re-established and
re-authenticated with the original credentials, and mutating path
operations carry idempotency keys so a retry can never silently apply an
operation twice (a ``put`` included: a transfer that dies mid-flight is
retried as a whole op).  Without a policy the client is the thin single-shot
wrapper it always was.

Every call on a connected client fails with a :class:`ChirpError`: the
server's answer as it came, or a transport failure recast with that
failure as its ``__cause__``.  A ``ChirpError`` is a
:class:`~repro.kernel.errno.KernelError`, so the errno reaches a boxed
program through the Parrot driver unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.telemetry import HandleCache, Telemetry, format_trace_parent
from ..kernel.errno import Errno, KernelError
from ..kernel.fdtable import OpenFlags
from ..net.network import Connection, Network
from ..net.rpc import ProtocolError
from .auth import ClientAuthenticator
from .protocol import (
    CHIRP_PORT,
    ChirpError,
    StatPayload,
    parse_response,
    request,
)
from .retry import (
    IDEMPOTENCY_KEYED_OPS,
    RetryPolicy,
    as_chirp_error,
    breaks_connection,
    is_transient,
)

@dataclass
class ClientStats:
    """Resilience accounting for one client session."""

    calls: int = 0
    retries: int = 0
    reconnects: int = 0
    reauths: int = 0
    timeouts: int = 0
    transfer_restarts: int = 0
    backoff_ns: int = 0


@dataclass
class ChirpClient:
    """One authenticated session with one Chirp server."""

    connection: Connection
    principal: str = ""
    retry: RetryPolicy | None = None
    stats: ClientStats = field(default_factory=ClientStats)
    #: optional display/routing label (a federation stamps the shard
    #: name here so spans and counters attribute work per shard)
    label: str = ""
    #: optional metrics sink: one ``rpc:<op>`` span per *logical* call
    #: (its trace id rides the wire and is reused verbatim by retries)
    telemetry: Telemetry | None = None
    _closed: bool = False
    _authenticators: list[ClientAuthenticator] = field(default_factory=list)
    #: bumped on every reconnect; fds minted before a bump are dead
    _epoch: int = 0
    _idem_seq: int = 0
    _session_id: str = ""
    _latency: HandleCache = field(
        default_factory=lambda: HandleCache("histogram", "op"), repr=False, compare=False
    )
    _calls: HandleCache = field(
        default_factory=lambda: HandleCache("counter", "op", "status"),
        repr=False,
        compare=False,
    )

    # ------------------------------------------------------------------ #
    # session setup
    # ------------------------------------------------------------------ #

    @classmethod
    def connect(
        cls,
        network: Network,
        client_host: str,
        server_host: str,
        port: int = CHIRP_PORT,
        retry: RetryPolicy | None = None,
        telemetry: Telemetry | None = None,
        label: str = "",
    ) -> "ChirpClient":
        attempts = retry.max_attempts if retry is not None else 1
        last: KernelError | None = None
        for attempt in range(attempts):
            if attempt:
                network.clock.advance(
                    retry.backoff_ns(attempt - 1, salt=attempt), "backoff"
                )
            try:
                connection = network.connect(client_host, server_host, port)
            except KernelError as exc:
                # a refused connect is retried only under a policy; every
                # other failure (and the single-shot case) surfaces as-is
                if retry is None or exc.errno is not Errno.ECONNREFUSED:
                    raise
                last = exc
                continue
            client = cls(
                connection=connection, retry=retry, telemetry=telemetry, label=label
            )
            client._session_id = f"{client_host}#{connection.conn_id}"
            return client
        raise as_chirp_error(last)

    def authenticate(self, authenticators: list[ClientAuthenticator]) -> str:
        """Negotiate: offer each method in order; first success wins (§4).

        A transport fault mid-offer (the server dropping the connection
        during the ``auth`` RPC) is not a verdict on the credential; with
        a retry policy the client reconnects and falls back to the next
        authenticator, and when a whole round produced only transient
        failures — no method was actually *rejected* — the negotiation
        backs off and runs another round.  The stale principal is cleared
        up front so a failed (re-)negotiation can never leave one
        attached.
        """
        if self._closed:
            raise ChirpError(Errno.EPIPE, "client is closed")
        self._authenticators = list(authenticators)
        self.principal = ""
        rounds = self.retry.max_attempts if self.retry is not None else 1
        last_error: ChirpError | None = None
        for round_no in range(rounds):
            if round_no:
                self.stats.retries += 1
                pause = self.retry.backoff_ns(round_no - 1, salt=self.stats.calls)
                self.stats.backoff_ns += pause
                self.connection.network.clock.advance(pause, "backoff")
            saw_transient = False
            for authenticator in authenticators:
                try:
                    if self.connection.closed:
                        if self.retry is None:
                            raise ChirpError(
                                Errno.EPIPE, "connection lost during auth"
                            )
                        self._connect_again()
                    self.stats.calls += 1
                    reply = parse_response(
                        self.connection.call(
                            request(
                                "auth",
                                method=authenticator.method,
                                payload=authenticator.payload(),
                            )
                        )
                    )
                except ChirpError as exc:
                    last_error = exc
                    if is_transient(exc):
                        saw_transient = True
                        if breaks_connection(exc):
                            self.connection.close()
                    continue
                except (KernelError, ProtocolError) as exc:
                    last_error = as_chirp_error(exc)
                    if self.retry is None:
                        raise last_error
                    # connection state is unknowable; start clean for
                    # the next offer
                    saw_transient = True
                    self.connection.close()
                    continue
                self.principal = str(reply["principal"])
                return self.principal
            if not saw_transient:
                break  # every method was genuinely rejected
        raise last_error or ChirpError(Errno.EACCES, "no authenticators offered")

    @property
    def epoch(self) -> int:
        """Bumped on every reconnect; fds minted earlier are dead."""
        return self._epoch

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.connection.close()

    # ------------------------------------------------------------------ #
    # the call path: single-shot or retrying
    # ------------------------------------------------------------------ #

    def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        if self._closed:
            raise ChirpError(Errno.EPIPE, "client is closed")
        if self.retry is None:
            return self._call_once(op, fields)
        return self._call_retrying(op, fields)

    def _start_rpc_span(self, op: str, fields: dict[str, Any]):
        """Open the per-logical-call span and stamp its id on the wire.

        The ``trace`` envelope field is computed exactly once, *before*
        any attempt runs, so a retried frame carries the same trace id as
        the original — mirroring the idempotency key's once-per-call
        semantics.
        """
        t = self.telemetry
        if t is None or not t.enabled:
            return None, fields
        attrs = {"shard": self.label} if self.label else {}
        span = t.start_span(f"rpc:{op}", surface="chirp-client", **attrs)
        return span, {**fields, "trace": format_trace_parent(span)}

    def _end_rpc_span(self, span, op: str, error: BaseException | None) -> None:
        if span is None:
            return
        status = "ok"
        if isinstance(error, KernelError):
            status = error.errno.name
        elif error is not None:
            status = "error"
        t = self.telemetry
        t.end_span(span, status=status)
        self._latency.get(t, "client.latency_ns", op).observe(span.duration_ns)
        self._calls.get(t, "client.calls", op, status).inc()

    def _call_once(self, op: str, fields: dict[str, Any]) -> dict[str, Any]:
        span, fields = self._start_rpc_span(op, fields)
        self.stats.calls += 1
        error: BaseException | None = None
        try:
            return parse_response(self.connection.call(request(op, **fields)))
        except (KernelError, ProtocolError) as exc:
            error = as_chirp_error(exc)
            raise error
        finally:
            self._end_rpc_span(span, op, error)

    def _call_retrying(self, op: str, fields: dict[str, Any]) -> dict[str, Any]:
        policy = self.retry
        clock = self.connection.network.clock
        span, fields = self._start_rpc_span(op, fields)
        if op in IDEMPOTENCY_KEYED_OPS:
            self._idem_seq += 1
            fields = {**fields, "idem": f"{self._session_id}:{self._idem_seq}"}
        error: BaseException | None = None
        try:
            return self._attempt_loop(op, fields, policy, clock)
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._end_rpc_span(span, op, error)

    def _attempt_loop(
        self, op: str, fields: dict[str, Any], policy: RetryPolicy, clock
    ) -> dict[str, Any]:
        last: BaseException | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self.stats.retries += 1
                if self.telemetry is not None:
                    self.telemetry.counter_inc("client.retries", op=op)
                pause = policy.backoff_ns(attempt - 1, salt=self.stats.calls)
                self.stats.backoff_ns += pause
                clock.advance(pause, "backoff")
            try:
                if self.connection.closed:
                    self._reconnect()
                self.stats.calls += 1
                start_ns = clock.now_ns
                frame = self.connection.call(request(op, **fields))
                reply = parse_response(frame)
                if clock.now_ns - start_ns > policy.call_timeout_ns:
                    # the answer arrived after the caller gave up: the
                    # response is discarded and the connection (whose
                    # framing we just abandoned) is torn down
                    self.stats.timeouts += 1
                    raise ChirpError(
                        Errno.ETIMEDOUT, f"{op} response past deadline"
                    )
                return reply
            except (KernelError, ProtocolError) as exc:
                if breaks_connection(exc):
                    self.connection.close()
                if not is_transient(exc):
                    raise as_chirp_error(exc)
                last = exc
        raise as_chirp_error(last)

    def _connect_again(self) -> None:
        """Re-establish the transport, retrying refused connects."""
        policy = self.retry
        old = self.connection
        network = old.network
        clock = network.clock
        last: KernelError | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                pause = policy.backoff_ns(attempt - 1, salt=self.stats.reconnects)
                self.stats.backoff_ns += pause
                clock.advance(pause, "backoff")
            try:
                self.connection = network.connect(
                    old.client_host, old.server_host, old.port
                )
            except KernelError as exc:
                if exc.errno is not Errno.ECONNREFUSED:
                    raise as_chirp_error(exc)
                last = exc
                continue
            self._epoch += 1
            self.stats.reconnects += 1
            return
        raise as_chirp_error(last)

    def _reconnect(self) -> None:
        """New connection plus a fresh identity negotiation."""
        self._connect_again()
        if self._authenticators:
            self.stats.reauths += 1
            self.authenticate(self._authenticators)

    # ------------------------------------------------------------------ #
    # Unix-like interface
    # ------------------------------------------------------------------ #

    def whoami(self) -> str:
        return str(self._call("whoami")["principal"])

    def open(self, path: str, flags: int = 0, mode: int = 0o644) -> int:
        return int(self._call("open", path=path, flags=int(flags), mode=mode)["fd"])

    def close_fd(self, fd: int) -> None:
        self._call("close", fd=fd)

    def pread(self, fd: int, length: int, offset: int) -> bytes:
        return self._call("pread", fd=fd, length=length, offset=offset)["data"]

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        return int(self._call("pwrite", fd=fd, data=data, offset=offset)["count"])

    def fstat(self, fd: int) -> StatPayload:
        return StatPayload.from_fields(self._call("fstat", fd=fd))

    def ftruncate(self, fd: int, length: int) -> None:
        self._call("ftruncate", fd=fd, length=length)

    def stat(self, path: str) -> StatPayload:
        return StatPayload.from_fields(self._call("stat", path=path))

    def lstat(self, path: str) -> StatPayload:
        return StatPayload.from_fields(self._call("lstat", path=path))

    def access(self, path: str, letters: str = "l") -> bool:
        try:
            self._call("access", path=path, letters=letters)
            return True
        except ChirpError as exc:
            if exc.errno in (Errno.EACCES, Errno.EPERM):
                return False
            raise

    def readdir(self, path: str) -> list[str]:
        return [str(n) for n in self._call("readdir", path=path)["names"]]

    def readlink(self, path: str) -> str:
        return str(self._call("readlink", path=path)["target"])

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._call("mkdir", path=path, mode=mode)

    def rmdir(self, path: str) -> None:
        self._call("rmdir", path=path)

    def unlink(self, path: str) -> None:
        self._call("unlink", path=path)

    def rename(self, oldpath: str, newpath: str) -> None:
        self._call("rename", oldpath=oldpath, newpath=newpath)

    def symlink(self, target: str, linkpath: str) -> None:
        self._call("symlink", target=target, linkpath=linkpath)

    def link(self, oldpath: str, newpath: str) -> None:
        self._call("link", oldpath=oldpath, newpath=newpath)

    def truncate(self, path: str, length: int) -> None:
        self._call("truncate", path=path, length=length)

    # ------------------------------------------------------------------ #
    # ACL administration
    # ------------------------------------------------------------------ #

    def getacl(self, path: str) -> str:
        return str(self._call("getacl", path=path)["acl"])

    def setacl(self, path: str, subject: str, rights: str) -> None:
        self._call("setacl", path=path, subject=subject, rights=rights)

    def aclcheck(self, path: str, letters: str) -> bool:
        return bool(self._call("aclcheck", path=path, letters=letters)["allowed"])

    # ------------------------------------------------------------------ #
    # staging conveniences and remote exec (Figure 3's verbs)
    # ------------------------------------------------------------------ #

    def put(self, data: bytes, path: str, mode: int = 0o644) -> int:
        """Stage data onto the server: one keyed ``putfile``, so a retry
        after a lost reply replays instead of writing again."""
        return int(self._call("putfile", path=path, data=data, mode=mode)["count"])

    def get(self, path: str) -> bytes:
        """Retrieve a whole remote file: one ``getfile``."""
        return self._call("getfile", path=path)["data"]

    def batch(self, frames: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Send several requests in one coalescing envelope.

        Returns the per-slot results in order: ``{"ok": True, ...}`` with
        the op's payload, or ``{"ok": False, "errno": ..., "error": ...}``.
        A refused slot does not disturb its neighbours; envelope-level
        refusals (overload shed, unauthenticated connection, malformed
        envelope) raise :class:`ChirpError` as any single call would.
        """
        return list(self._call("batch", frames=list(frames))["results"])

    def exec(self, path: str, args: list[str] | None = None, cwd: str = "/") -> int:
        """Run a remote program inside an identity box named by this
        connection's principal; returns its exit status."""
        reply = self._call("exec", path=path, args=args or [], cwd=cwd)
        return int(reply["status"])


#: Open flags a revived descriptor must not replay: the reopened file
#: must be found as it was left, chunks already written intact.
_REOPEN_CLEAR = int(OpenFlags.O_CREAT | OpenFlags.O_TRUNC | OpenFlags.O_EXCL)


@dataclass
class RemoteFile:
    """An open remote descriptor that outlives its connection.

    Descriptors do not survive reconnects, so a descriptor op retried
    after a reconnect reports EBADF from the fresh connection.  That
    EBADF is transport weather, not a verdict: the file remembers how it
    was opened, reopens the path with its open flags minus
    ``O_CREAT|O_TRUNC|O_EXCL`` and reruns the op.  ``pread``/``pwrite``
    offsets are absolute, so a revived descriptor continues exactly where
    the old one died.  A reopened descriptor can die in turn; each op
    gets ``retry.max_attempts`` attempts in all.  The Parrot driver's
    handles revive through here; ``put``/``get`` hold no descriptor.
    """

    client: ChirpClient
    fd: int
    path: str = ""
    flags: int = 0
    mode: int = 0o644
    #: the client's epoch when ``fd`` was minted
    epoch: int = 0

    @classmethod
    def open(
        cls, client: ChirpClient, path: str, flags: int, mode: int = 0o644
    ) -> "RemoteFile":
        fd = client.open(path, flags, mode)
        return cls(client, fd, path, int(flags), mode, client.epoch)

    def _stale(self, exc: ChirpError) -> bool:
        """Did this descriptor die with its connection (vs a real EBADF)?"""
        return (
            self.client.retry is not None
            and exc.errno is Errno.EBADF
            and self.client.epoch != self.epoch
        )

    def call(self, method: str, *args: Any) -> Any:
        """``client.<method>(fd, *args)``, reviving a dead descriptor."""
        client = self.client
        attempt = 1
        while True:
            try:
                return getattr(client, method)(self.fd, *args)
            except ChirpError as exc:
                if not self._stale(exc) or attempt >= client.retry.max_attempts:
                    raise
            attempt += 1
            client.stats.transfer_restarts += 1
            self.fd = client.open(self.path, self.flags & ~_REOPEN_CLEAR, self.mode)
            self.epoch = client.epoch

    def close(self) -> None:
        """Close the descriptor; one that died with its connection is
        already gone, so its EBADF is not an error."""
        try:
            self.client.close_fd(self.fd)
        except ChirpError as exc:
            if not self._stale(exc):
                raise


@dataclass
class ChirpSession:
    """Context-manager sugar: connect + authenticate + close."""

    network: Network
    client_host: str
    server_host: str
    authenticators: list[ClientAuthenticator] = field(default_factory=list)
    port: int = CHIRP_PORT
    retry: RetryPolicy | None = None
    telemetry: Telemetry | None = None
    client: ChirpClient | None = None

    def __enter__(self) -> ChirpClient:
        self.client = ChirpClient.connect(
            self.network,
            self.client_host,
            self.server_host,
            self.port,
            self.retry,
            telemetry=self.telemetry,
        )
        self.client.authenticate(self.authenticators)
        return self.client

    def __exit__(self, *exc_info) -> None:
        if self.client is not None:
            self.client.close()
