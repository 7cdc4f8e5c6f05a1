"""The Chirp server: a personal file server with a fully virtual user space.

"A Chirp server is a personal file server for grid computing.  It can be
deployed by an ordinary user anywhere there is space available in a file
system" (§4).  Everything below runs as the unprivileged owner:

* the export root is a directory the owner can write,
* every stored object is physically owned by the owner's uid — "the space
  of local users is completely hidden from external users.  All data is
  stored and referenced by external identities" via per-directory ACLs,
* remote ``exec`` runs the named program in an identity box whose identity
  is the connection's authenticated principal, under the server's shared
  supervisor.

Every RPC dispatches through the same operation pipeline the supervisor
uses for trapped syscalls (:mod:`repro.core.pipeline`): the connection's
principal is resolved by the identity gate, ACL-file shielding and the
reference monitor run from the shared per-op specs, and only then does a
``c_<op>`` handler below perform the action as the owner.  Per-connection
state is a :class:`_Connection`: the negotiated principal plus a table
mapping protocol descriptors to the owner's real descriptors.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.acl import ACL_FILE_NAME, Acl
from ..core.aclfs import AclPolicy
from ..core.audit import AuditLog
from ..core.box import IdentityBox
from ..core.identity import Principal
from ..core.ops import (
    OP_PATH_SPECS,
    OpRegistry,
    OpSpec,
    acl_dir_for,
    apply_setacl,
    rename_clearing_acl,
    rmdir_clearing_acl,
)
from ..core.pipeline import (
    CROSSED_SYMLINK,
    Admission,
    BoundPath,
    Operation,
    Pipeline,
    ReadCache,
    build_pipeline,
)
from ..core.telemetry import CounterView, HandleCache, Telemetry, is_trace_parent
from ..gsi.cas import AdmissionPolicy, OpenPolicy
from ..interpose.drivers import LocalDriver
from ..interpose.supervisor import Supervisor
from ..kernel.errno import Errno, KernelError, err
from ..kernel.fdtable import O_RDONLY, O_WRONLY_CREAT_TRUNC
from ..kernel.vfs import dirname, join, normalize
from ..net.network import Network, Peer
from ..net.rpc import ProtocolError, encode_message
from .auth import AuthenticationFailed, ServerAuth
from .protocol import (
    BATCH_LIMIT,
    BATCH_OP,
    BATCHABLE_OPS,
    CHIRP_PORT,
    CHUNK,
    FED_XFER_SUFFIX,
    UnknownOpError,
    error_response,
    ok_response,
    parse_request,
    stat_fields,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.machine import Machine
    from ..kernel.users import Credentials

#: Default export root, relative to the owner's home — "anywhere there is
#: space available in a file system" that an ordinary user can write.
DEFAULT_EXPORT_SUBDIR = "chirp"
DEFAULT_EXPORT_ROOT = ""  # sentinel: derive from the owner's home


#: Bound on the idempotency replay cache (responses, not payload data).
IDEM_CACHE_LIMIT = 1024

#: Request fields besides the ops' path arguments, and the type each must
#: decode to.  Anything else there is EINVAL, never coerced: a ``null``
#: subject must not become the subject "None", a ``true`` length must not
#: read one byte.  The check is ``type(v) is t``, so a bool is no int;
#: ``args`` must also hold only strings.
FIELD_TYPES: dict[str, type] = {
    "target": str,
    "subject": str,
    "rights": str,
    "letters": str,
    "method": str,
    "fd": int,
    "flags": int,
    "mode": int,
    "length": int,
    "offset": int,
    "data": bytes,
    "args": list,
}


# ---------------------------------------------------------------------- #
# RPC handlers (run after the pipeline's identity/guard/monitor stages)
# ---------------------------------------------------------------------- #


def c_auth(op: Operation, conn: "_Connection") -> dict[str, Any]:
    server = conn.server
    method = op.args.get("method", "")
    payload = op.args.get("payload") or {}
    try:
        principal = server.auth.verify(method, payload, conn.peer)
    except AuthenticationFailed as exc:
        server._count("chirp.auth_failures")
        raise err(Errno.EACCES, str(exc)) from exc
    identity = str(principal)
    if not server.admission.admits(identity):
        server._count("chirp.auth_failures")
        raise err(Errno.EACCES, f"{identity} is not admitted by site policy")
    conn.principal = principal
    conn.identity = identity
    return {"principal": identity}


def c_whoami(op: Operation, conn: "_Connection") -> dict[str, Any]:
    return {"principal": op.identity}


def c_open(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    sup_fd = path.driver.open(path.sub, op.args.get("flags", 0), op.args.get("mode", 0o644))
    # a descriptor opened through a symlink gets no path: the fast lane
    # then flushes on its writes instead of invalidating the alias
    hint = None if op.scratch.get(CROSSED_SYMLINK) else path.sub
    return {"fd": conn.install_fd(path.driver, sup_fd, hint)}


def c_close(op: Operation, conn: "_Connection") -> dict[str, Any]:
    fs, sup_fd = conn.pop_fd(op.args["fd"])
    fs.close(sup_fd)
    return {}


def c_pread(op: Operation, conn: "_Connection") -> dict[str, Any]:
    fs, sup_fd = conn.sup_fd(op.args["fd"])
    data = fs.pread(sup_fd, op.args["length"], op.args["offset"])
    conn.server._count("chirp.bytes_read", value=len(data))
    return {"data": data}


def c_pwrite(op: Operation, conn: "_Connection") -> dict[str, Any]:
    fs, sup_fd = conn.sup_fd(op.args["fd"])
    n = fs.pwrite(sup_fd, op.args["data"], op.args["offset"])
    conn.server._count("chirp.bytes_written", value=n)
    return {"count": n}


def read_file(fs: LocalDriver, path: str) -> bytes:
    """A whole file's bytes: open, positioned reads to EOF, close."""
    fd = fs.open(path, O_RDONLY, 0)
    try:
        out = bytearray()
        while chunk := fs.pread(fd, CHUNK, len(out)):
            out.extend(chunk)
        return bytes(out)
    finally:
        fs.close(fd)


def write_file(fs: LocalDriver, path: str, data: bytes, mode: int) -> int:
    """Replace a file's bytes: open with ``O_WRONLY|O_CREAT|O_TRUNC``,
    positioned writes, close.  Returns the byte count written."""
    fd = fs.open(path, O_WRONLY_CREAT_TRUNC, mode)
    try:
        offset = 0
        while offset < len(data):
            offset += fs.pwrite(fd, data[offset : offset + CHUNK], offset)
        return offset
    finally:
        fs.close(fd)


def c_getfile(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    data = read_file(path.driver, path.sub)
    conn.server._count("chirp.bytes_read", value=len(data))
    return {"data": data}


def c_putfile(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    n = write_file(path.driver, path.sub, op.args["data"], op.args.get("mode", 0o644))
    conn.server._count("chirp.bytes_written", value=n)
    return {"count": n}


def c_fstat(op: Operation, conn: "_Connection") -> dict[str, Any]:
    fs, sup_fd = conn.sup_fd(op.args["fd"])
    return stat_fields(fs.fstat(sup_fd))


def c_ftruncate(op: Operation, conn: "_Connection") -> dict[str, Any]:
    fs, sup_fd = conn.sup_fd(op.args["fd"])
    fs.ftruncate(sup_fd, op.args["length"])
    return {}


def c_stat(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    return stat_fields(path.driver.stat(path.sub))


def c_lstat(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    return stat_fields(path.driver.lstat(path.sub))


def c_access(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    path.driver.stat(path.sub)  # existence probe after the rights check
    return {}


def c_readdir(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    names = [n for n in path.driver.readdir(path.sub) if n != ACL_FILE_NAME]
    return {"names": names}


def c_readlink(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    return {"target": conn.server.virtual_path(path.driver.readlink(path.sub))}


def c_mkdir(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    path.driver.mkdir(path.sub, op.args.get("mode", 0o755))
    conn.server.policy.apply_mkdir(path.sub, op.scratch["mkdir_acl"])
    conn.server.pipeline.audit.emit(
        op.identity, "mkdir", path.sub, True, "acl-installed"
    )
    return {}


def c_rmdir(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    conn.server.policy.invalidate(path.sub)  # its ACL dies with it
    rmdir_clearing_acl(path.driver, path.sub)
    return {}


def c_unlink(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    path.driver.unlink(path.sub)
    return {}


def c_rename(op: Operation, conn: "_Connection") -> dict[str, Any]:
    old, new = op.path(0), op.path(1)
    # a moved directory keeps its inode and its ACL; only an empty
    # directory the rename replaces dies
    conn.server.policy.invalidate(new.sub)
    rename_clearing_acl(old.driver, old.sub, new.sub)
    return {}


def c_symlink(op: Operation, conn: "_Connection") -> dict[str, Any]:
    link = op.path()
    target = op.args["target"]
    if not target.startswith("/"):  # relative to the link's directory
        target = join(dirname(link.full), target)
    # stored as the machine path of a protocol path (".." resolved
    # lexically, never above the export root): it resolves inside the export
    link.driver.symlink(conn.server.real_path(target), link.sub)
    return {}


def c_link(op: Operation, conn: "_Connection") -> dict[str, Any]:
    old, new = op.path(0), op.path(1)
    old.driver.link(old.sub, new.sub)
    return {}


def c_truncate(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    path.driver.truncate(path.sub, op.args["length"])
    return {}


def c_getacl(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    acl = conn.server.policy.acl_of(acl_dir_for(path.driver, path.sub))
    return {"acl": acl.render() if acl is not None else ""}


def c_setacl(op: Operation, conn: "_Connection") -> dict[str, Any]:
    acl_dir = op.scratch["acl_dir"]  # stashed by the monitor's admin check
    rights = apply_setacl(
        conn.server.policy,
        acl_dir,
        op.args["subject"],
        op.args["rights"],
    )
    conn.server.pipeline.audit.emit(
        op.identity, "setacl", acl_dir, True, f"{op.args['subject']} {rights}"
    )
    return {}


def c_aclcheck(op: Operation, conn: "_Connection") -> dict[str, Any]:
    path = op.path()
    decision = conn.server.policy.check(
        op.identity, path.sub, op.args["letters"]
    )
    return {"allowed": decision.allowed}


def c_exec(op: Operation, conn: "_Connection") -> dict[str, Any]:
    """Remote execution in an identity box (the paper's protocol extension)."""
    server = conn.server
    exe, cwd = op.path(0), op.path(1)
    box = IdentityBox(
        server.machine,
        server.owner_cred,
        op.identity,
        supervisor=server.supervisor,
        make_home=False,
    )
    proc = box.spawn(exe.sub, op.args.get("args", []), cwd=cwd.sub, comm=f"exec:{exe.raw}")
    server.machine.run()
    server._count("chirp.execs")
    return {"pid": proc.pid, "status": proc.exit_status or 0}


def build_chirp_registry() -> OpRegistry:
    """Every protocol op, wired to the shared per-op path policy."""
    registry = OpRegistry()
    registry.register(OpSpec("auth", c_auth, pre_auth=True))
    for name, handler in [
        ("whoami", c_whoami),
        ("open", c_open),
        ("close", c_close),
        ("pread", c_pread),
        ("pwrite", c_pwrite),
        ("getfile", c_getfile),
        ("putfile", c_putfile),
        ("fstat", c_fstat),
        ("ftruncate", c_ftruncate),
        ("stat", c_stat),
        ("lstat", c_lstat),
        ("access", c_access),
        ("readdir", c_readdir),
        ("readlink", c_readlink),
        ("mkdir", c_mkdir),
        ("rmdir", c_rmdir),
        ("unlink", c_unlink),
        ("rename", c_rename),
        ("symlink", c_symlink),
        ("link", c_link),
        ("truncate", c_truncate),
        ("getacl", c_getacl),
        ("setacl", c_setacl),
        ("aclcheck", c_aclcheck),
        ("exec", c_exec),
    ]:
        registry.register(OpSpec(name, handler, paths=OP_PATH_SPECS.get(name, ())))
    return registry


class ChirpServer:
    """One Chirp server instance on one simulated machine."""

    def __init__(
        self,
        machine: "Machine",
        owner_cred: "Credentials",
        *,
        network: Network,
        export_root: str = DEFAULT_EXPORT_ROOT,
        port: int = CHIRP_PORT,
        auth: ServerAuth | None = None,
        admission: AdmissionPolicy | None = None,
        audit: AuditLog | None = None,
        limits: Admission | None = None,
        telemetry=None,
        read_cache: ReadCache | None = None,
    ) -> None:
        self.machine = machine
        self.owner_cred = owner_cred
        self.network = network
        self.hostname = machine.hostname
        self.port = port
        if not export_root:
            export_root = join(
                machine.users.by_uid(owner_cred.uid).home, DEFAULT_EXPORT_SUBDIR
            )
        self.export_root = normalize(export_root)
        self.auth = auth or ServerAuth(server_hostname=self.hostname)
        self.auth.server_hostname = self.hostname
        self.admission = admission or OpenPolicy()
        self.owner_task = machine.host_task(owner_cred)
        self.policy = AclPolicy(machine, self.owner_task)
        #: shared with the supervisor below, so a remote exec's boxed
        #: syscall spans nest under the RPC span that spawned them
        self.telemetry = (
            telemetry if telemetry is not None else getattr(machine, "telemetry", None)
        )
        self.supervisor = Supervisor(
            machine,
            owner_cred,
            policy=self.policy,
            audit=audit,
            telemetry=self.telemetry,
        )
        self.fs = LocalDriver(machine, self.owner_task)
        #: the one store of the server's counts: its telemetry, else a
        #: private registry that no pipeline or supervisor sees
        self.metrics = self.telemetry if self.telemetry is not None else Telemetry(machine.clock)
        self._counters = HandleCache("counter", "op")
        self._ops = self.metrics.counter("chirp.ops")  # every request, bound once
        self.limits = limits
        self._idem_cache: OrderedDict[str, bytes] = OrderedDict()
        self.registry = build_chirp_registry()
        #: op name -> (its spec, whether it writes through a descriptor)
        self._bind_plans = {s.name: (s, s.name in ("pwrite", "ftruncate")) for s in self.registry}
        # the fast lane, armed only by an explicit cache.  The cache watches
        # the file system's incarnation: a restore() flushes it wholesale —
        # entries must never outlive the world they were read from.
        if read_cache is not None and read_cache.epoch_source is None:
            read_cache.epoch_source = lambda: machine.fs.incarnation
        self.read_cache = read_cache
        self.pipeline: Pipeline = build_pipeline(
            self.registry,
            policy=self.policy,
            clock=machine.clock,
            audit_log=audit,
            resolve_identity=self._resolve_identity,
            limits=limits,
            telemetry=self.telemetry,
            cache=read_cache,
        )
        #: read-only: every field reads its counter back from the registry
        self.stats = CounterView(
            self.metrics,
            connections="chirp.connections",
            auth_failures="chirp.auth_failures",
            ops="chirp.ops",
            execs="chirp.execs",
            bytes_read="chirp.bytes_read",
            bytes_written="chirp.bytes_written",
            denials=self.pipeline.denial_counter.total,
            # malformed/truncated frames that poisoned their connection
            protocol_errors="chirp.protocol_errors",
            # requests shed with EAGAIN by the admission arrival bucket
            sheds="chirp.sheds",
            # idempotency-key cache hits (a retry that would have re-applied)
            replays="chirp.replays",
            # fast-lane batch envelopes unpacked (each counts its inner
            # requests into ``ops``, so ``ops`` stays comparable either way)
            batches="fastlane.batches",
            # inner requests that arrived coalesced inside a batch envelope
            coalesced="fastlane.coalesced_frames",
        )
        self._ensure_export_root()

    def rehost(self) -> None:
        """Follow the machine into the world a restore rewound it to.

        The owner's host task, the driver over it and the supervisor are
        bound to the world they were built in, whose descriptors are
        EBADF in any other; they are rebuilt against the current one, as
        :meth:`Supervisor.fork` rebuilds a supervisor for a forked world.
        Nothing is re-stamped: a descriptor opened before the restore
        stays with its old driver and stays EBADF.  Configuration,
        policy, audit log and telemetry carry over.
        """
        machine = self.machine
        self.owner_task = machine.host_task(self.owner_cred)
        self.fs = LocalDriver(machine, self.owner_task)
        self.supervisor = Supervisor(
            machine,
            self.owner_cred,
            policy=self.policy,
            audit=self.supervisor.audit,
            telemetry=self.telemetry,
        )

    def _resolve_identity(self, op: Operation, conn: "_Connection") -> str | None:
        if op.spec is not None and op.spec.pre_auth:
            return None
        if conn.identity is None:
            raise err(Errno.EACCES, "authenticate first")
        return conn.identity

    def _count(self, name: str, op: str = "", value: int = 1) -> None:
        self._counters.get(self.metrics, name, op).inc(value)

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def _ensure_export_root(self) -> None:
        parts = [p for p in self.export_root.split("/") if p]
        path = ""
        for part in parts:
            path += "/" + part
            try:
                self.machine.kcall_x(self.owner_task, "mkdir", path, 0o755)
            except KernelError as exc:
                if exc.errno is not Errno.EEXIST:
                    raise

    def set_root_acl(self, acl: Acl) -> None:
        """The owner declares who may do what at the export root."""
        self.policy.write_acl(self.export_root, acl)

    def serve(self) -> None:
        """Start accepting connections."""
        self.network.listen(self.hostname, self.port, self._connect)

    def _connect(self, peer: Peer) -> "_Connection":
        self._count("chirp.connections")
        return _Connection(server=self, peer=peer)

    # ------------------------------------------------------------------ #
    # path translation (the protocol namespace is rooted at export_root)
    # ------------------------------------------------------------------ #

    def real_path(self, vpath: str) -> str:
        """Translate a protocol path to a machine path, escape-proof."""
        return self._translate(vpath)[1]

    def _translate(self, vpath: str) -> tuple[str, str]:
        """A protocol path as ``(normalized, machine path)``.

        ``normalize`` resolves ``..`` lexically *before* prefixing, so a
        hostile ``/../../etc/passwd`` lands back inside the export root.
        """
        norm = normalize(vpath if vpath.startswith("/") else "/" + vpath)
        return norm, self.export_root if norm == "/" else self.export_root + norm

    def virtual_path(self, real: str) -> str:
        """The inverse of :meth:`real_path`, for export-relative state
        (symlink targets are stored as machine paths; ``readlink`` answers
        them export-relative, and replication must compare and copy them
        so, since every shard's export root is a different owner's home)."""
        if real == self.export_root:
            return "/"
        if real.startswith(self.export_root + "/"):
            return real[len(self.export_root):]
        return real

    # ------------------------------------------------------------------ #
    # anti-entropy support: a content manifest of the whole export
    # ------------------------------------------------------------------ #

    def export_manifest(self) -> dict[str, tuple]:
        """Walk the export namespace into ``vpath → entry`` form.

        Entries are ``("dir", mode)``, ``("file", mode, size, digest)``
        or ``("link", target_vpath)`` — exactly the comparison a replica
        peer needs to decide what a rejoining shard missed.  ACL files
        are included (policy must converge too); in-flight transfer
        staging names are excluded (they are not namespace state).
        """
        manifest: dict[str, tuple] = {}
        self._manifest_walk("/", manifest)
        return manifest

    def _manifest_walk(self, vdir: str, manifest: dict[str, tuple]) -> None:
        for name in sorted(self.fs.readdir(self.real_path(vdir))):
            if name.endswith(FED_XFER_SUFFIX):
                continue
            vpath = ("" if vdir == "/" else vdir) + "/" + name
            st = self.fs.lstat(self.real_path(vpath))
            if st.is_symlink:
                target = self.fs.readlink(self.real_path(vpath))
                manifest[vpath] = ("link", self.virtual_path(target))
            elif st.is_dir:
                manifest[vpath] = ("dir", st.st_mode & 0o7777)
                self._manifest_walk(vpath, manifest)
            else:
                manifest[vpath] = (
                    "file",
                    st.st_mode & 0o7777,
                    st.st_size,
                    hashlib.blake2b(
                        self.read_export_file(vpath), digest_size=16
                    ).hexdigest(),
                )

    def read_export_file(self, vpath: str) -> bytes:
        """Read one exported file's bytes as the owner (repair donor side)."""
        return read_file(self.fs, self.real_path(vpath))


@dataclass
class _Connection:
    """Server-side state for one client connection."""

    server: ChirpServer
    peer: Peer
    principal: Principal | None = None
    #: ``str(principal)``, minted once per authentication: every op's
    #: identity, span and denial exemplar shares this one string
    identity: str | None = None
    #: protocol fd -> (the driver that opened it, its descriptor there)
    _fds: dict[int, tuple[LocalDriver, int]] = field(default_factory=dict)
    #: protocol fd → the opened path, so descriptor writes can invalidate
    #: the fast-lane read cache narrowly instead of flushing it
    _fd_paths: dict[int, str] = field(default_factory=dict)
    _next_fd: int = 3
    _poisoned: bool = False
    _released: bool = False

    # ------------------------------------------------------------------ #
    # framing
    # ------------------------------------------------------------------ #

    def handle(self, frame: bytes) -> bytes:
        server = self.server
        if server.owner_task.fdtable.incarnation is not server.machine.fs.incarnation:
            server.rehost()  # the machine was restored under the server
        if self._poisoned:
            return error_response(Errno.EPIPE, "connection poisoned by bad frame")
        try:
            message = parse_request(frame)
        except UnknownOpError as exc:
            # well-framed but meaningless: the stream is still in sync,
            # answer and carry on
            return error_response(Errno.EINVAL, str(exc))
        except ProtocolError as exc:
            # graceful degradation: a malformed or truncated frame kills
            # only this connection — its identity state is released right
            # away — and never the accept loop
            server._count("chirp.protocol_errors")
            self._poison()
            return error_response(Errno.EBADMSG, f"unparseable frame: {exc}")
        op_name = message["op"]
        if op_name == BATCH_OP:
            # the coalescing envelope is framing, not an operation: it
            # carries its own idem/overload handling and unpacks each
            # inner request through the pipeline
            return self._handle_batch(message)
        server._ops.inc()
        # envelope fields ride alongside the op's own arguments and are
        # stripped before binding: the idempotency key and the caller's
        # trace parent (``trace_id/span_id``, minted once per logical
        # call, so every retry of one call lands in one trace)
        idem = message.pop("idem", None)
        trace = self._trace_parent(message.pop("trace", None))
        refusal = self._replay_or_shed(idem, op_name)
        if refusal is not None:
            return refusal
        response = encode_message(self._outcome(op_name, message, None, trace))
        if idem is not None:
            self._remember(str(idem), response)
        return response

    def _handle_batch(self, message: dict[str, Any]) -> bytes:
        """Unpack a coalescing envelope: one wire frame, many pipeline ops.

        The whole batch pays one arrival token (it is one arrival; the
        per-identity budget still meters every inner op), resolves its
        identity once, and isolates failures per slot — a refused frame
        yields an error *result* in its position and the rest still run,
        exactly as the same requests sent singly would behave.
        """
        server = self.server
        idem = message.pop("idem", None)
        trace = self._trace_parent(message.pop("trace", None))
        refusal = self._replay_or_shed(idem, BATCH_OP)
        if refusal is not None:
            return refusal
        frames = message.get("frames")
        if (
            not isinstance(frames, list)
            or not frames
            or len(frames) > BATCH_LIMIT
        ):
            return error_response(
                Errno.EINVAL, f"batch carries 1..{BATCH_LIMIT} frames"
            )
        identity = self.identity
        if identity is None:
            # resolved once for the whole envelope — the amortization the
            # fast lane exists for; inner frames inherit the answer
            return error_response(Errno.EACCES, "authenticate first")
        server._count("fastlane.batches")
        server._count("fastlane.coalesced_frames", value=len(frames))
        results = [self._run_frame(sub, identity, trace) for sub in frames]
        response = ok_response(results=results)
        if idem is not None:
            self._remember(str(idem), response)
        return response

    def _run_frame(
        self, sub: Any, identity: str, trace: str
    ) -> dict[str, Any]:
        """One inner request of a batch; failures stay in this slot."""
        server = self.server
        if not isinstance(sub, dict) or sub.get("op") not in BATCHABLE_OPS:
            return {
                "ok": False,
                "errno": int(Errno.EINVAL),
                "error": "frame cannot be coalesced",
            }
        sub = dict(sub)
        sub.pop("idem", None)  # envelope-level concerns only
        sub.pop("trace", None)
        server._ops.inc()
        return self._outcome(str(sub["op"]), sub, identity, trace)

    def _outcome(
        self, op_name: str, message: dict[str, Any], identity: str | None, trace: str
    ) -> dict[str, Any]:
        """Run one request through the pipeline; its reply as a dict.

        A single request and a batch slot both answer through here, so a
        failure maps to the same errno and text either way.  ``identity``
        is the batch envelope's, resolved once for all its slots.
        """
        try:
            op = self._bind(op_name, message)
            if identity is not None:
                op.identity = identity
            if trace:
                op.scratch["trace_parent"] = trace
            payload = self.server.pipeline.run(op, self)
            return {"ok": True, **(payload or {})}
        except KernelError as exc:
            return {"ok": False, "errno": int(exc.errno), "error": str(exc)}
        except ProtocolError as exc:
            return {"ok": False, "errno": int(Errno.EINVAL), "error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {
                "ok": False,
                "errno": int(Errno.EINVAL),
                "error": f"malformed {op_name!r} request: {exc}",
            }

    def _replay_or_shed(self, idem: Any, op_name: str) -> bytes | None:
        """The framing layer's answer before any op runs, if it has one:
        the remembered reply to a retried idempotency key, or an
        overload shed when the arrival bucket is empty."""
        server = self.server
        if idem is not None:
            cached = server._idem_cache.get(str(idem))
            if cached is not None:
                server._count("chirp.replays", op_name)
                return cached
        if server.limits is not None and not server.limits.arrive():
            # EAGAIN now beats queueing unboundedly; deliberately not
            # cached so the retry is re-admitted
            server._count("chirp.sheds", op_name)
            return error_response(Errno.EAGAIN, "server overloaded; retry later")
        return None

    def _trace_parent(self, trace: Any) -> str:
        """The wire ``trace`` field if it has the shape
        :func:`format_trace_parent` writes, else ``""``: the server span
        then starts a fresh root trace and ``chirp.bad_trace`` counts the
        field a remote peer sent."""
        if trace is None or is_trace_parent(trace):
            return trace or ""
        self.server._count("chirp.bad_trace")
        return ""

    def _remember(self, idem: str, response: bytes) -> None:
        cache = self.server._idem_cache
        cache[idem] = response
        while len(cache) > IDEM_CACHE_LIMIT:
            cache.popitem(last=False)

    def _poison(self) -> None:
        self._poisoned = True
        self.on_close()

    def on_close(self) -> None:
        """Release per-connection identity state; safe to call twice.

        Both poisoning and the network's teardown path invoke this, so it
        guards itself to keep the release exactly-once.
        """
        if self._released:
            return
        self._released = True
        for fs, sup_fd in self._fds.values():
            self.server.machine.kcall(fs.task, "close", sup_fd)
        self._fds.clear()
        self._fd_paths.clear()

    def _bind(self, op_name: str, message: dict[str, Any]) -> Operation:
        """Bind a decoded request into a pipeline operation.

        The request's fields but ``op`` are its ``op.args``.  The protocol
        namespace is rooted at the export root: ``full`` is the
        client-visible absolute path (ACL-file shielding works on basenames
        either way), ``sub`` the translated machine path the policy and
        driver see.
        """
        server = self.server
        spec, fd_mutation = server._bind_plans[op_name]
        message.pop("op", None)
        for name, value in message.items():
            kind = FIELD_TYPES.get(name)
            if kind is not None and (
                type(value) is not kind
                or kind is list and any(type(a) is not str for a in value)
            ):
                noun = "a list of str" if kind is list else kind.__name__
                raise err(Errno.EINVAL, f"{op_name} {name} must be {noun}")
        paths = []
        for path_spec in spec.paths:
            if path_spec.field in message:
                raw = message[path_spec.field]
            elif path_spec.default is not None:
                raw = path_spec.default
            else:
                raise KeyError(path_spec.field)
            if not isinstance(raw, str):
                raise err(Errno.EINVAL, f"{op_name} {path_spec.field} must be a string")
            full, sub = server._translate(raw)  # one normalization, both views
            paths.append(BoundPath(path_spec, raw, full, sub, server.fs))
        scratch = {}
        if fd_mutation and server.read_cache is not None and "fd" in message:
            # a descriptor-addressed mutation carries no path for the fast
            # lane to invalidate by: hint it with the path the fd was
            # opened on (an unknown fd degrades to a full flush)
            scratch["fastlane_paths"] = [self._fd_paths.get(message["fd"])]
        return Operation(op_name, "chirp", message, None, "/", paths, scratch, spec)

    # ------------------------------------------------------------------ #
    # protocol descriptor table
    # ------------------------------------------------------------------ #

    def install_fd(self, fs: LocalDriver, sup_fd: int, path: str | None = None) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = (fs, sup_fd)
        if path is not None:
            self._fd_paths[fd] = path
        return fd

    def sup_fd(self, fd: int) -> tuple[LocalDriver, int]:
        if fd not in self._fds:
            raise err(Errno.EBADF, f"chirp fd {fd}")
        return self._fds[fd]

    def pop_fd(self, fd: int) -> tuple[LocalDriver, int]:
        entry = self._fds.pop(fd, None)
        if entry is None:
            raise err(Errno.EBADF, f"chirp fd {fd}")
        self._fd_paths.pop(fd, None)
        return entry
