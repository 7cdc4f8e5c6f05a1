"""One fuzzing exec: fork a variant world, run a scenario, audit it.

Both executors follow the same shape.  A *template* world is cold-built
once and frozen with :meth:`~repro.kernel.machine.Machine.snapshot`;
every exec then boots ``Machine(snapshot=template)`` — an
O(size-of-diff) fork — attaches a fresh
:class:`~repro.core.telemetry.Telemetry`, runs the scenario, and reads
coverage off the counters.

The per-exec containment oracle is O(size-of-diff) too, and the CoW
substrate is what makes it sound: any inode a run modified *must* sit in
the forked map's top layer (:meth:`~repro.kernel.cow.CowMap.diff_keys`),
so auditing exactly those inodes against the template's recorded fields
inspects everything the run touched and nothing it didn't.  Fields
compared are the property-test set — type, mode, owner, link count,
content/symlink target, directory entries — with access times excluded
(world-readable files may legitimately be read).  On the Chirp surface
every exec also runs the reply oracle: a reply or error text that names
the export root (a machine path of the server's owner) is a
``violation:leak:`` verdict.

Survivors (inputs the engine retains for new coverage) get the full
treatment via :meth:`check_survivor`: structural filesystem invariants,
the identity oracle (``whoami`` inside the box answers the visiting
identity), the rights oracle (the owner's private file stays unreadable),
and the transparency/determinism oracle (re-executing the scenario from
a fresh fork reproduces the transcript and coverage byte-identically).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.acl import Acl
from ..core.box import IdentityBox
from ..core.identity import IdentityError
from ..core.rights import Rights
from ..core.telemetry import Telemetry
from ..kernel.errno import KernelError
from ..kernel.fdtable import OpenFlags
from ..kernel.machine import Machine, WorldSnapshot
from ..kernel.signals import Signal
from .coverage import coverage_edges

#: The one directory scenario grants apply to on the syscall surface: a
#: zone the owner may legitimately open up, excluded from containment.
SHARED_DIR = "/home/alice/shared"

#: Extra accounts populating the syscall template: a realistically
#: multi-user host.  Cold boot pays to build them; a warm fork shares them.
WORLD_USERS = 16

SERVER_HOST = "server1.nowhere.edu"
CLIENT_HOST = "laptop.cs.nowhere.edu"


@dataclass
class ExecResult:
    """What one exec produced: feedback, evidence, and a verdict."""

    coverage: set[str] = field(default_factory=set)
    transcript: list[Any] = field(default_factory=list)
    verdict: str = "ok"
    #: inodes the run touched (the CoW diff size) — corpus bookkeeping
    touched: int = 0

    def transcript_sha(self) -> str:
        blob = json.dumps(self.transcript, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _normalize(value: Any) -> Any:
    """Make one op result JSON-able and stable across runs."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (bytes, bytearray)):
        return ["bytes", len(value), hashlib.sha256(bytes(value)).hexdigest()[:12]]
    if isinstance(value, (tuple, list)):
        return [_normalize(item) for item in value]
    return repr(value)


def _inode_fields(node) -> tuple:
    """The containment-relevant fields of one inode (atime excluded)."""
    return (
        node.ftype.value,
        node.mode,
        node.uid,
        node.nlink,
        bytes(node.data) if node.is_file else node.symlink_target,
        tuple(sorted(node.entries.items())) if node.is_dir else None,
    )


def _walk_base_fields(machine: Machine, excluded_prefixes: tuple[str, ...]) -> dict:
    """ino -> fields for every template inode *outside* the writable zone."""
    fs = machine.fs
    base: dict[int, tuple] = {}

    def walk(node, path):
        if any(
            path == prefix or path.startswith(prefix + "/")
            for prefix in excluded_prefixes
        ):
            return
        base[node.ino] = _inode_fields(node)
        if node.is_dir:
            for name in sorted(node.entries):
                child = fs.inode(node.entries[name])
                walk(child, f"{path.rstrip('/')}/{name}")

    walk(fs.root, "/")
    return base


class _TemplateExecutor:
    """Shared template/fork/oracle machinery for both surfaces."""

    surface = "?"
    #: subtrees a scenario may legitimately modify
    writable_zone: tuple[str, ...] = ("/tmp",)

    def __init__(self) -> None:
        self._snapshot: WorldSnapshot | None = None
        self._base_fields: dict[int, tuple] | None = None
        self._snapshot_id: str | None = None

    # -- template ------------------------------------------------------ #

    def _build_world(self) -> Machine:  # pragma: no cover - overridden
        raise NotImplementedError

    def template_snapshot(self) -> WorldSnapshot:
        if self._snapshot is None:
            machine = self._build_world()
            self._snapshot = machine.snapshot()
            self._base_fields = _walk_base_fields(machine, self.writable_zone)
            blob = json.dumps(
                [
                    [ino, repr(fields)]
                    for ino, fields in sorted(self._base_fields.items())
                ],
                sort_keys=True,
            )
            digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
            self._snapshot_id = f"{self.surface}:{digest}"
        return self._snapshot

    @property
    def snapshot_id(self) -> str:
        """Content hash of the template world the corpus replays against."""
        self.template_snapshot()
        return self._snapshot_id or ""

    def fork_world(self, *, warm: bool = True) -> tuple[Machine, Telemetry]:
        """A variant world plus its private telemetry sink.

        ``warm=False`` cold-builds the template world from scratch instead
        of forking it — the baseline arm of the throughput benchmark.
        """
        snap = self.template_snapshot()
        telemetry = Telemetry(None)
        if warm:
            machine = Machine(snapshot=snap, telemetry=telemetry)
        else:
            machine = self._build_world()
            machine.telemetry = telemetry
        telemetry.clock = machine.clock
        return machine, telemetry

    # -- the O(diff) containment oracle -------------------------------- #

    def containment_verdict(self, machine: Machine) -> str:
        """'' when contained; otherwise what leaked, as a message."""
        assert self._base_fields is not None
        inodes = machine.fs._inodes
        for ino in sorted(inodes.diff_keys()):
            base = self._base_fields.get(ino)
            if base is None:
                # born after the fork, or inside the writable zone
                continue
            node = inodes.get(ino)
            if node is None:
                return f"protected inode {ino} was deleted"
            if _inode_fields(node) != base:
                return f"protected inode {ino} was modified"
        return ""

    def touched_count(self, machine: Machine) -> int:
        return len(machine.fs._inodes.diff_keys())


class SyscallExecutor(_TemplateExecutor):
    """Drive hostile op scripts through a boxed process (the §3 surface)."""

    surface = "syscall"
    writable_zone = ("/tmp", SHARED_DIR)

    def __init__(self, *, world_users: int = WORLD_USERS) -> None:
        super().__init__()
        self.world_users = world_users

    def _build_world(self) -> Machine:
        machine = Machine(hostname="fuzzhost")
        alice = machine.add_user("alice")
        task = machine.host_task(alice)
        machine.write_file(task, "/home/alice/secret", b"secret", mode=0o600)
        machine.write_file(task, "/home/alice/public", b"public", mode=0o644)
        machine.kcall_x(task, "mkdir", "/home/alice/keep", 0o755)
        machine.write_file(task, "/home/alice/keep/data", b"kept", mode=0o644)
        machine.kcall_x(task, "mkdir", SHARED_DIR, 0o755)
        for index in range(self.world_users):
            cred = machine.add_user(f"user{index:02d}")
            utask = machine.host_task(cred)
            home = machine.users.by_uid(cred.uid).home
            for j in range(3):
                machine.write_file(
                    utask, f"{home}/file{j}.dat", bytes([j]) * 64, mode=0o644
                )
        # pre-warm the visitor box homes: every identity the mutation pool
        # can visit as gets its home, ACL, and passwd copy created *once*,
        # in the template — per-exec box setup then reduces to the EEXIST
        # path.  (All under /tmp, the writable zone, so runs that mutate
        # them stay within containment.)
        from .scenario import SYSCALL_IDENTITIES

        for identity in SYSCALL_IDENTITIES:
            IdentityBox(machine, alice, identity)
        return machine

    def execute(self, scenario, *, warm: bool = True) -> ExecResult:
        machine, telemetry = self.fork_world(warm=warm)
        result = ExecResult()
        alice = machine.users.credentials_for("alice")
        try:
            box = IdentityBox(machine, alice, scenario.identity)
        except IdentityError as exc:
            # the front door rejected the identity string itself
            result.transcript.append(["identity-rejected", str(exc)])
            result.coverage = {"syscall|gate|identity|rejected"}
            return result
        for subject, rights in scenario.grants:
            try:
                box.grant(SHARED_DIR, subject, rights)
                result.transcript.append(["grant", subject, rights])
            except (ValueError, KernelError) as exc:
                result.transcript.append(["grant-rejected", subject, repr(exc)])
        box.spawn(
            self._script_body(scenario, result.transcript), comm="fuzz-scenario"
        )
        machine.run(max_steps=500_000)
        result.coverage = coverage_edges(telemetry)
        result.touched = self.touched_count(machine)
        leak = self.containment_verdict(machine)
        if leak:
            result.verdict = f"violation:containment:{leak}"
        return result

    def _script_body(self, scenario, transcript: list) -> Callable:
        script = [list(op) for op in scenario.ops]
        identity = scenario.identity

        def body(proc, args):
            fds: list[int] = []
            for step in script:
                op, rest = step[0], step[1:]
                if op == "open_write":
                    fd = yield proc.sys.open(
                        rest[0], OpenFlags.O_WRONLY | OpenFlags.O_CREAT
                    )
                    out = fd
                    if isinstance(fd, int) and fd >= 0:
                        addr = proc.alloc_bytes(b"overwrite!")
                        out = yield proc.sys.write(fd, addr, 10)
                        fds.append(fd)
                elif op == "open_read":
                    fd = yield proc.sys.open(rest[0], OpenFlags.O_RDONLY)
                    out = fd
                    if isinstance(fd, int) and fd >= 0:
                        buf = proc.alloc(64)
                        out = yield proc.sys.read(fd, buf, 64)
                        fds.append(fd)
                elif op == "rename":
                    out = yield proc.sys.rename(rest[0], rest[1])
                elif op == "symlink":
                    out = yield proc.sys.symlink(rest[0], rest[1])
                elif op == "link":
                    out = yield proc.sys.link(rest[0], rest[1])
                elif op == "chmod":
                    out = yield proc.sys.chmod(rest[0], 0o777)
                elif op == "truncate":
                    out = yield proc.sys.truncate(rest[0], 0)
                elif op == "setacl":
                    out = yield proc.sys.setacl(rest[0], identity, "rwlxa")
                elif op == "kill":
                    out = yield proc.sys.kill(rest[0], int(Signal.SIGKILL))
                elif op == "pipe":
                    out = yield proc.sys.pipe()
                    if isinstance(out, tuple):
                        rfd, wfd = out
                        addr = proc.alloc_bytes(b"pp")
                        yield proc.sys.write(wfd, addr, 2)
                        buf = proc.alloc(4)
                        yield proc.sys.read(rfd, buf, 4)
                        fds.extend((rfd, wfd))
                elif op == "thread":
                    def benign(tproc, targs):
                        yield tproc.compute(us=1)
                        return 0

                    out = yield proc.sys.thread(benign)
                    if isinstance(out, int) and out > 0:
                        yield proc.sys.waitpid()
                elif op == "dup_guess":
                    out = yield proc.sys.dup(rest[0])
                elif op == "close_guess":
                    out = yield proc.sys.close(rest[0])
                elif op == "whoami":
                    out = yield proc.sys.get_user_name()
                else:  # unary path ops: unlink/mkdir/rmdir/chdir/stat/readdir
                    out = yield getattr(proc.sys, op)(rest[0])
                transcript.append([op, _normalize(out)])
            for fd in fds:
                yield proc.sys.close(fd)
            return 0

        return body

    # -- survivor-grade oracles ---------------------------------------- #

    def check_survivor(self, scenario, result: ExecResult) -> str:
        """Full oracle pass over a retained input; '' when clean."""
        machine, _telemetry = self.fork_world()
        alice = machine.users.credentials_for("alice")
        try:
            box = IdentityBox(machine, alice, scenario.identity)
        except IdentityError:
            return ""
        probe: list[Any] = []

        def probe_body(proc, args):
            name = yield proc.sys.get_user_name()
            probe.append(name)
            denied = yield proc.sys.open("/home/alice/secret", OpenFlags.O_RDONLY)
            probe.append(denied)
            return 0

        box.spawn(probe_body, comm="oracle-probe")
        machine.run(max_steps=100_000)
        machine.fs.check_invariants()
        if probe[0] != scenario.identity:
            return f"violation:identity:whoami answered {probe[0]!r}"
        if not (isinstance(probe[1], int) and probe[1] < 0):
            return "violation:rights:owner's private file became readable"
        replay = self.execute(scenario)
        if replay.transcript != result.transcript:
            return "violation:transparency:replay transcript diverged"
        if replay.coverage != result.coverage:
            return "violation:transparency:replay coverage diverged"
        return ""


class ChirpExecutor(_TemplateExecutor):
    """Drive RPC scripts at a Chirp server under a fault schedule (§4)."""

    surface = "chirp"

    def __init__(self) -> None:
        super().__init__()
        from ..gsi import CertificateAuthority, CredentialStore

        self.ca = CertificateAuthority("Fuzz CA")
        self.trust = CredentialStore()
        self.trust.trust(self.ca)
        self._wallets: dict[str, Any] = {}
        self._export_root = ""

    def _wallet(self, dn: str):
        wallet = self._wallets.get(dn)
        if wallet is None:
            from ..gsi import provision_user

            wallet = provision_user(self.ca, self.trust, dn)
            self._wallets[dn] = wallet
        return wallet

    def _build_world(self) -> Machine:
        machine = Machine(hostname=SERVER_HOST)
        owner = machine.add_user("dthain")
        task = machine.host_task(owner)
        export = machine.users.by_uid(owner.uid).home + "/chirp"
        machine.kcall_x(task, "mkdir", export, 0o755)
        self._export_root = export
        self.writable_zone = ("/tmp", export)

        def sim(proc, _args):
            fd = yield proc.sys.open(
                "out.dat", OpenFlags.O_WRONLY | OpenFlags.O_CREAT
            )
            if isinstance(fd, int) and fd >= 0:
                addr = proc.alloc_bytes(b"simulated\n")
                yield proc.sys.write(fd, addr, 10)
                yield proc.sys.close(fd)
            return 0

        machine.register_program("sim", sim)
        return machine

    def execute(self, scenario, *, warm: bool = True) -> ExecResult:
        from ..chirp import (
            CHIRP_PORT,
            ChirpClient,
            ChirpError,
            ChirpServer,
            GlobusAuthenticator,
            RetryPolicy,
            ServerAuth,
        )
        from ..net import Blackout, FaultPlan
        from ..net.network import Network

        machine, telemetry = self.fork_world(warm=warm)
        result = ExecResult()
        owner = machine.users.credentials_for("dthain")
        network = Network(clock=machine.clock, costs=machine.costs)
        network.add_host(SERVER_HOST)
        network.add_host(CLIENT_HOST)
        read_cache = None
        if getattr(scenario, "cache", False):
            from ..core.pipeline import ReadCache

            read_cache = ReadCache()
        server = ChirpServer(
            machine,
            owner,
            network=network,
            auth=ServerAuth(credential_store=self.trust),
            read_cache=read_cache,
        )
        acl = Acl()
        acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("v(rwlax)"))
        acl.set_entry("globus:/O=NotreDame/*", Rights.parse("rl"))
        for subject, rights in scenario.grants:
            try:
                acl.set_entry(subject, Rights.parse(rights))
                result.transcript.append(["grant", subject, rights])
            except (ValueError, IdentityError) as exc:
                result.transcript.append(["grant-rejected", subject, repr(exc)])
        server.set_root_acl(acl)
        server.serve()

        fault = scenario.fault or {}
        rates = fault.get("rates", {})
        windows = fault.get("blackout_windows", [])
        plan = None
        if rates or fault.get("restart_at_ops") or windows:
            plan = FaultPlan(
                seed=int(fault.get("seed", 1)),
                refuse_rate=float(rates.get("refuse", 0.0)),
                drop_rate=float(rates.get("drop", 0.0)),
                drop_after_rate=float(rates.get("drop_after", 0.0)),
                spike_rate=float(rates.get("spike", 0.0)),
                truncate_rate=float(rates.get("truncate", 0.0)),
                corrupt_rate=float(rates.get("corrupt", 0.0)),
                restart_at_ops=tuple(fault.get("restart_at_ops", [])),
                blackouts=tuple(
                    Blackout(CHIRP_PORT, int(start), int(end))
                    for start, end in windows
                ),
                ports=(CHIRP_PORT,),
            ).bind_telemetry(telemetry)
            network.install_faults(plan)
        retry = RetryPolicy(
            max_attempts=10, seed=int(fault.get("seed", 1))
        ) if plan is not None else None

        try:
            client = ChirpClient.connect(
                network, CLIENT_HOST, SERVER_HOST, retry=retry
            )
            principal = client.authenticate(
                [GlobusAuthenticator(self._wallet(scenario.identity))]
            )
            result.transcript.append(["authenticated", principal])
        except KernelError as exc:
            result.transcript.append(["connect-failed", repr(exc)])
            result.coverage = coverage_edges(telemetry)
            result.touched = self.touched_count(machine)
            return result

        named_root = ""
        for step in scenario.ops:
            op, rest = step[0], step[1:]
            try:
                out = self._rpc(client, op, rest)
                reply = repr(out)
            except ChirpError as exc:
                out, reply = ["chirp-error", exc.errno.name], str(exc)
            except KernelError as exc:
                out, reply = ["net-error", exc.errno.name], str(exc)
            if self._export_root in reply:
                named_root = named_root or f"{op} {rest!r} answered {reply!r}"
            result.transcript.append([op, _normalize(out)])
        result.coverage = coverage_edges(telemetry)
        result.touched = self.touched_count(machine)
        leak = self.containment_verdict(machine)
        if leak:
            result.verdict = f"violation:containment:{leak}"
        elif named_root:  # the reply oracle: no machine path crosses the wire
            result.verdict = f"violation:leak:{named_root}"
        return result

    def _rpc(self, client, op: str, rest: list) -> Any:
        if op == "put":
            return client.put(b"payload-bytes\n", rest[0])
        if op == "put_exe":
            return client.put(b"#!repro:sim\n", rest[0], mode=0o755)
        if op == "exec":
            return client.exec(rest[0], cwd="/")
        if op == "get":
            return client.get(rest[0])
        if op == "open_read":
            # put/get are whole-file ops; this keeps the descriptor ops
            # (open, pread, close, and their revival) in the fuzzed set
            from ..chirp.client import RemoteFile

            f = RemoteFile.open(client, rest[0], OpenFlags.O_RDONLY)
            try:
                return f.call("pread", 64, 0)
            finally:
                f.close()
        if op == "truncate":
            return client.truncate(rest[0], rest[1])
        if op == "setacl":
            return client.setacl(rest[0], rest[1], rest[2])
        if op == "rename":
            return client.rename(rest[0], rest[1])
        if op == "symlink":
            return client.symlink(rest[0], rest[1])
        if op == "whoami":
            return client.whoami()
        # unary ops: mkdir/stat/access/readdir/unlink/getacl
        return getattr(client, op)(rest[0])

    # -- survivor-grade oracles ---------------------------------------- #

    def check_survivor(self, scenario, result: ExecResult) -> str:
        machine, _telemetry = self.fork_world()
        machine.fs.check_invariants()
        replay = self.execute(scenario)
        if replay.transcript != result.transcript:
            return "violation:transparency:replay transcript diverged"
        if replay.coverage != result.coverage:
            return "violation:transparency:replay coverage diverged"
        return ""
