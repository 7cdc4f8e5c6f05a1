"""The five seeded workloads and the client-side models that check them.

Every workload builds its world through public APIs only, turns ``--seed``
into a list of ops per round, and knows the reply each op must get.  The
model that predicts the replies is the benchmark's own (paths, bytes, ACL
entries, listings); it never asks the program under test.  The program sees
only the generated ops.

An op is ``Op(kind, who, args, expect)``: ``kind`` names the client call,
``who`` the session or client that issues it, and ``expect`` the value that
:meth:`Workload.view` must return for its reply.
"""

from __future__ import annotations

import json
from bisect import bisect
from fnmatch import fnmatchcase
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Any, NamedTuple

from repro.chirp import (
    ChirpClient,
    ChirpServer,
    FederatedClient,
    GlobusAuthenticator,
    ServerAuth,
    StatPayload,
    deploy_federation,
)
from repro.core import Acl, ReadCache, Rights, instrument
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.net import Cluster
from repro.workloads import AMANDA, BLAST, CMS, HF, IBIS, MAKE, run_app

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

SERVER = "server.bench"
CLIENT = "client.bench"
RIGHT_ORDER = "rwlxa"


class Op(NamedTuple):
    kind: str
    who: Any
    args: tuple
    expect: Any


class Failure(NamedTuple):
    """Stands in for the reply of an op that raised."""

    error: str


def rights_text(letters: str) -> str:
    """Rights letters in the order the server renders them."""
    return "".join(ch for ch in RIGHT_ORDER if ch in letters)


def zipf_sampler(n: int, s: float):
    """Draw indices 0..n-1 with weight 1/(i+1)**s."""
    cumulative = list(accumulate(1.0 / (i + 1) ** s for i in range(n)))
    total = cumulative[-1]

    def draw(rng: Random) -> int:
        return min(bisect(cumulative, rng.random() * total), n - 1)

    return draw


def shuffled_mix(rng: Random, weighted: list[tuple[str, float]], count: int) -> list[str]:
    """``count`` kinds in exactly the mix's proportions, in seeded order:
    every round then does the same amount of each kind of work."""
    total = sum(w for _, w in weighted)
    kinds: list[str] = []
    for kind, w in weighted:
        kinds += [kind] * round(count * w / total)
    kinds = (kinds + [weighted[0][0]] * count)[:count]
    rng.shuffle(kinds)
    return kinds


def stat_view(st: StatPayload) -> tuple:
    if st.is_dir:
        return ("dir", st.mode)
    return ("file", st.size, st.is_symlink, st.nlink, st.mode)


def file_stat(data: bytes) -> tuple:
    return ("file", len(data), False, 1, 0o644)


def acl_view(text: str) -> tuple:
    return tuple(tuple(line.split()) for line in text.splitlines())


class AclModel:
    """One directory's ACL as the server must render it (plain rights
    letters; subjects may use ``*`` and ``?``)."""

    def __init__(self, entries: list[tuple[str, str]]) -> None:
        self.entries = list(entries)

    def set(self, subject: str, letters: str) -> None:
        self.entries = [e for e in self.entries if e[0] != subject]
        if letters:
            self.entries.append((subject, rights_text(letters)))

    def allows(self, identity: str, letters: str) -> bool:
        held = set()
        for subject, rights in self.entries:
            if fnmatchcase(identity, subject):
                held.update(rights)
        return set(letters) <= held

    def view(self) -> tuple:
        return tuple(self.entries)


class Workload:
    """One traffic mix: set-up, per-round op lists, execution, checking."""

    name = ""
    #: what one counted op is
    unit = "client op"
    #: host seconds one round takes on the reference machine
    round_s = 1.25

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def rng(self, label: object) -> Random:
        return Random(f"{self.name}:{self.seed}:{label}")

    def round_count(self, seconds: float) -> int:
        return 1 if self.smoke else max(2, round(seconds / self.round_s))

    def setup(self) -> None:
        """Build a fresh world and warm it up."""
        raise NotImplementedError

    def make_round(self, index) -> list[Op]:
        """The ops of one round; ``index`` seeds it, with the model's state."""
        raise NotImplementedError

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def view(self, op: Op, reply: Any) -> Any:
        return reply

    def weight(self, op: Op, reply: Any) -> int:
        """How many counted ops one executed op stands for."""
        return 1

    def clock(self):
        """The simulated clock the ops charge, or None if each op has its own."""
        return None

    def sim_ns(self, reply: Any) -> int:
        """Simulated ns of one reply, for workloads without a shared clock."""
        return 0

    def handler_classes(self) -> tuple[type, ...]:
        return ()

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) of every fast-lane read cache in the world."""
        return (0, 0)

    def telemetry_series(self) -> int:
        return 0

    def warm_up(self) -> None:
        for op in self.make_round("warm-up"):
            self.execute(op)


# --------------------------------------------------------------------- #
# boxed applications
# --------------------------------------------------------------------- #


class BoxedApps(Workload):
    """Whole boxed application runs; a counted op is one trapped syscall."""

    unit = "trapped syscall"
    apps: tuple = ()

    def pinned(self, profile, scale: float, mode: str) -> list:
        return EXPECTED["apps"][f"{profile.name}@{scale}"][mode]

    def setup(self) -> None:
        # the same profiles unboxed: their sim time is what the boxed
        # overhead in expected.json is measured against
        for profile, scale in self.apps:
            got = list(run_app(profile, boxed=False, scale=scale))
            want = self.pinned(profile, scale, "base")
            if got != want:
                raise RuntimeError(
                    f"unboxed {profile.name}@{scale} ran {got}, expected {want}"
                )
        if not self.smoke:
            self.warm_up()

    def make_round(self, index) -> list[Op]:
        apps = list(self.apps)
        self.rng(index).shuffle(apps)
        return [
            Op("app", profile.name, (profile, scale), self.pinned(profile, scale, "boxed"))
            for profile, scale in apps
        ]

    def execute(self, op: Op) -> Any:
        profile, scale = op.args
        return run_app(profile, boxed=True, scale=scale)

    def view(self, op: Op, reply: Any) -> Any:
        return list(reply)

    def weight(self, op: Op, reply: Any) -> int:
        return op.expect[1] if isinstance(reply, Failure) else reply[1]

    def sim_ns(self, reply: Any) -> int:
        return 0 if isinstance(reply, Failure) else round(reply[0] * 1e9)


class BoxedMake(BoxedApps):
    name = "boxed_make"
    round_s = 1.5
    apps = ((MAKE, 0.01),)


class BoxedIO(BoxedApps):
    name = "boxed_io"
    round_s = 1.7
    apps = (
        (AMANDA, 0.05411),
        (BLAST, 0.0069),
        (CMS, 0.00433),
        (HF, 0.00373),
        (IBIS, 0.01357),
    )


# --------------------------------------------------------------------- #
# Chirp worlds
# --------------------------------------------------------------------- #


def chirp_world(realm: str, users: list[str], *, instrumented: bool = False, **server_kwargs):
    """A cluster with one GSI-authenticating Chirp server and a client host."""
    cluster = Cluster()
    cluster.add_machine(SERVER)
    cluster.add_machine(CLIENT)
    ca = CertificateAuthority(f"{realm} CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallets = {user: provision_user(ca, trust, f"/O={realm}/CN={user}") for user in users}
    machine = cluster.machine(SERVER)
    if instrumented:
        instrument(machine)
    server = ChirpServer(
        machine,
        machine.add_user("keeper"),
        network=cluster.network,
        auth=ServerAuth(credential_store=trust),
        **server_kwargs,
    )
    return cluster, ca, trust, wallets, server


def login(cluster: Cluster, wallet) -> ChirpClient:
    client = ChirpClient.connect(cluster.network, CLIENT, SERVER)
    client.authenticate([GlobusAuthenticator(wallet)])
    return client


def principal(realm: str, user: str) -> str:
    return f"globus:/O={realm}/CN={user}"


def chirp_view(kind: str, reply: Any) -> Any:
    if isinstance(reply, Failure):
        return reply
    if kind == "stat":
        return stat_view(reply)
    if kind == "getacl":
        return acl_view(reply)
    if kind == "readdir":
        return sorted(reply)
    return reply


class ChirpWorkload(Workload):
    """Ops are client calls over the world's cluster; ``probe`` is a live
    client whose connection shows the server's handler class."""

    cluster: Cluster
    probe: ChirpClient

    def view(self, op: Op, reply: Any) -> Any:
        return chirp_view(op.kind, reply)

    def clock(self):
        return self.cluster.clock

    def handler_classes(self) -> tuple[type, ...]:
        return (type(self.probe.connection.handler),)


class ChirpRead(ChirpWorkload):
    """Two principals alternating a read mix over a static, ACL-rich tree."""

    name = "chirp_read"
    realm = "Bench"
    dirs = 16
    files = 64
    round_ops = 8_000
    mix = [("stat", 40), ("access", 20), ("getacl", 15), ("readdir", 10), ("get", 15)]
    access_letters = ["r", "w", "l", "x", "a", "rw", "rl", "lx"]

    def setup(self) -> None:
        rng = self.rng("setup")
        readers = ["reader-a", "reader-b"]
        cluster, _ca, _trust, wallets, server = chirp_world(
            self.realm, ["admin", *readers]
        )
        admin_id = principal(self.realm, "admin")
        root = Acl()
        root.set_entry(admin_id, Rights.parse("rwlxa"))
        server.set_root_acl(root)
        server.serve()
        admin = login(cluster, wallets["admin"])
        self.acls: dict[str, AclModel] = {}
        self.data: dict[str, bytes] = {}
        for d in range(self.dirs):
            path = f"/d{d:02d}"
            admin.mkdir(path)
            acl = self.acls[path] = AclModel([(admin_id, "rwlxa")])
            others = [f"u{n:03d}" for n in rng.sample(range(1000), 5)]
            entries = [
                (principal(self.realm, user), "".join(rng.sample("rwlxa", rng.randint(1, 5))))
                for user in [*readers, *others]
            ]
            entries.append((f"globus:/O={self.realm}/*", "rl"))
            entries.append(
                (f"globus:/O={self.realm}/CN=reader-?", "".join(rng.sample("wxa", rng.randint(1, 3))))
            )
            for subject, letters in entries:
                admin.setacl(path, subject, letters)
                acl.set(subject, letters)
            for f in range(self.files):
                data = rng.randbytes(rng.randint(512, 4096))
                admin.put(data, f"{path}/f{f:02d}")
                self.data[f"{path}/f{f:02d}"] = data
        self.paths = sorted(self.data)
        rng.shuffle(self.paths)
        self.draw = zipf_sampler(len(self.paths), 1.1)
        self.listing = sorted(f"f{f:02d}" for f in range(self.files))
        self.readers = [principal(self.realm, r) for r in readers]
        self.clients = [login(cluster, wallets[r]) for r in readers]
        self.cluster, self.probe = cluster, admin
        self.warm_up()

    def make_round(self, index) -> list[Op]:
        rng = self.rng(index)
        count = self.round_ops // 20 if self.smoke else self.round_ops
        ops = []
        for i, kind in enumerate(shuffled_mix(rng, self.mix, count)):
            who = i % 2
            path = self.paths[self.draw(rng)]
            directory = path.rsplit("/", 1)[0]
            if kind == "stat":
                ops.append(Op(kind, who, (path,), file_stat(self.data[path])))
            elif kind == "access":
                letters = rng.choice(self.access_letters)
                allowed = self.acls[directory].allows(self.readers[who], letters)
                ops.append(Op(kind, who, (path, letters), allowed))
            elif kind == "getacl":
                ops.append(Op(kind, who, (path,), self.acls[directory].view()))
            elif kind == "readdir":
                ops.append(Op(kind, who, (directory,), self.listing))
            else:
                ops.append(Op(kind, who, (path,), self.data[path]))
        return ops

    def execute(self, op: Op) -> Any:
        return getattr(self.clients[op.who], op.kind)(*op.args)


class ChirpSessions(ChirpWorkload):
    """Short sessions from always-new principals against a cached server."""

    name = "chirp_sessions"
    realm = "Sessions"
    hot_files = {"/shared/a.dat": 1024, "/shared/b.dat": 4096, "/shared/c.dat": 16384}
    round_sessions = 30
    session_reads = 15
    session_writes = 5
    reads = [("stat", 35), ("access", 25), ("getacl", 20), ("get", 10), ("readdir", 10)]
    writes = [("put", 40), ("rename", 25), ("unlink", 25), ("setacl", 10)]
    access_letters = ["l", "r", "rl", "w"]
    names = [f"n{i}" for i in range(6)]

    def setup(self) -> None:
        rng = self.rng("setup")
        cluster, ca, trust, wallets, server = chirp_world(
            self.realm, ["admin"], instrumented=True, read_cache=ReadCache()
        )
        admin_id = principal(self.realm, "admin")
        everyone = f"globus:/O={self.realm}/*"
        root = Acl()
        root.set_entry(admin_id, Rights.parse("rwlxa"))
        root.set_entry(everyone, Rights.parse("l"))
        server.set_root_acl(root)
        server.serve()
        admin = login(cluster, wallets["admin"])
        admin.mkdir("/shared")
        admin.setacl("/shared", everyone, "rl")
        self.shared_acl = AclModel([(admin_id, "rwlxa"), (everyone, "l")])
        self.shared_acl.set(everyone, "rl")
        self.data = {path: rng.randbytes(size) for path, size in self.hot_files.items()}
        for path, data in self.data.items():
            admin.put(data, path)
        self.shared_listing = sorted(path.rsplit("/", 1)[1] for path in self.data)
        admin.mkdir("/users")
        admin.setacl("/users", everyone, "lv(rwlax)")
        self.hot = ["/shared", *self.data]
        self.cluster, self.ca, self.trust, self.server, self.probe = (
            cluster, ca, trust, server, admin,
        )
        self.sessions: dict[int, ChirpClient] = {}
        self.minted = 0
        if not self.smoke:
            self.fill_cache()

    def mint(self) -> tuple[str, Any]:
        """A never-seen principal and its wallet (getting a certificate is
        offline, before any session)."""
        self.minted += 1
        user = f"p{self.minted:06d}"
        wallet = provision_user(self.ca, self.trust, f"/O={self.realm}/CN={user}")
        return user, wallet

    def fill_cache(self) -> None:
        """Warm-up: new principals read every hot key until the read cache
        is at capacity, so the timed rounds see a full cache evicting."""
        cache = self.server.read_cache
        while len(cache) < cache.capacity:
            _user, wallet = self.mint()
            client = login(self.cluster, wallet)
            for path in self.hot:
                client.stat(path)
                client.getacl(path)
            for path in self.data:
                for letters in self.access_letters:
                    client.access(path, letters)
            client.close()

    def session(self, rng: Random, slot: int, reads, writes) -> list[Op]:
        """Every op of one session, from login to close."""
        user, wallet = self.mint()
        me = principal(self.realm, user)
        home = f"/users/{user}"
        ops = [Op("open", slot, (wallet,), me), Op("mkdir", slot, (home,), None)]
        files: dict[str, bytes] = {}
        acl = AclModel([(me, "rwlxa")])
        steps = ["r"] * self.session_reads + ["w"] * self.session_writes
        rng.shuffle(steps)
        for step in steps:
            if step == "r":
                ops.append(self.hot_read(rng, next(reads), slot, me))
                continue
            kind = next(writes)
            free = [n for n in self.names if n not in files]
            if kind == "rename" and files and free:
                src, dst = rng.choice(sorted(files)), rng.choice(free)
                files[dst] = files.pop(src)
                ops.append(Op(kind, slot, (f"{home}/{src}", f"{home}/{dst}"), None))
            elif kind == "unlink" and files:
                name = rng.choice(sorted(files))
                del files[name]
                ops.append(Op(kind, slot, (f"{home}/{name}",), None))
            elif kind == "setacl":
                peer = principal(self.realm, f"peer{rng.randrange(100):02d}")
                letters = rng.choice(["rl", "rwl", ""])
                acl.set(peer, letters)
                ops.append(Op(kind, slot, (home, peer, letters or "-"), None))
            else:
                name = rng.choice(self.names)
                data = files[name] = rng.randbytes(rng.randint(512, 16384))
                ops.append(Op("put", slot, (data, f"{home}/{name}"), len(data)))
        ops.append(Op("readdir", slot, (home,), sorted(files)))
        ops.append(Op("getacl", slot, (home,), acl.view()))
        ops.append(Op("close", slot, (), None))
        return ops

    def hot_read(self, rng: Random, kind: str, slot: int, me: str) -> Op:
        if kind == "readdir":
            return Op(kind, slot, ("/shared",), self.shared_listing)
        if kind in ("stat", "getacl"):
            path = rng.choice(self.hot)
        else:
            path = rng.choice(list(self.data))
        if kind == "stat":
            expect = ("dir", 0o755) if path == "/shared" else file_stat(self.data[path])
            return Op(kind, slot, (path,), expect)
        if kind == "access":
            letters = rng.choice(self.access_letters)
            return Op(kind, slot, (path, letters), self.shared_acl.allows(me, letters))
        if kind == "getacl":
            return Op(kind, slot, (path,), self.shared_acl.view())
        return Op(kind, slot, (path,), self.data[path])

    def make_round(self, index) -> list[Op]:
        """Sessions two at a time, op by op; a slot that frees up starts
        the next session."""
        rng = self.rng(index)
        sessions = 10 if self.smoke else self.round_sessions
        reads = iter(shuffled_mix(rng, self.reads, sessions * self.session_reads))
        writes = iter(shuffled_mix(rng, self.writes, sessions * self.session_writes))
        live = {slot: self.session(rng, slot, reads, writes) for slot in (0, 1)}
        started = len(live)
        ops: list[Op] = []
        while live:
            for slot in (0, 1):
                pending = live.get(slot)
                if pending is None:
                    continue
                ops.append(pending.pop(0))
                if pending:
                    continue
                if started < sessions:
                    live[slot] = self.session(rng, slot, reads, writes)
                    started += 1
                else:
                    del live[slot]
        return ops

    def execute(self, op: Op) -> Any:
        if op.kind == "open":
            client = ChirpClient.connect(self.cluster.network, CLIENT, SERVER)
            self.sessions[op.who] = client
            return client.authenticate([GlobusAuthenticator(op.args[0])])
        return getattr(self.sessions[op.who], op.kind)(*op.args)

    def cache_counts(self) -> tuple[int, int]:
        snap = self.server.read_cache.snapshot()
        return snap["hits"], snap["misses"]

    def telemetry_series(self) -> int:
        return series_count(self.server.telemetry)


def series_count(telemetry) -> int:
    """Label sets in one telemetry registry."""
    snap = telemetry.snapshot(spans=0)
    return len(snap["counters"]) + len(snap["gauges"]) + len(snap["histograms"])


# --------------------------------------------------------------------- #
# federation
# --------------------------------------------------------------------- #


class FedModel:
    """The federated namespace: per prefix, its files and empty subdirs."""

    def __init__(self) -> None:
        self.files: dict[str, dict[str, bytes]] = {}
        self.dirs: dict[str, set[str]] = {}

    def listing(self, prefix: str) -> list[str]:
        return sorted([*self.files[prefix], *self.dirs[prefix]])


class FedRW(ChirpWorkload):
    """One client reading and writing a 4-shard, 3-replica federation."""

    name = "fed_rw"
    realm = "Fed"
    shards = 4
    replicas = 3
    prefixes = 64
    slots = [f"f{i}" for i in range(8)]
    subdirs = ["d0", "d1"]
    sizes_kib = [(1, 4), (4, 3), (16, 2), (64, 1)]
    round_ops = 1500
    mix = [
        ("stat", 25), ("get", 20), ("readdir", 15),
        ("put", 20), ("unlink", 6), ("rename", 6), ("move", 1), ("mkdir", 3.5), ("rmdir", 3.5),
    ]

    def setup(self) -> None:
        rng = self.rng("setup")
        cluster = Cluster()
        cluster.add_machine(CLIENT)
        ca = CertificateAuthority(f"{self.realm} CA")
        trust = CredentialStore()
        trust.trust(ca)
        wallet = provision_user(ca, trust, f"/O={self.realm}/CN=writer")
        root = Acl()
        root.set_entry(principal(self.realm, "writer"), Rights.parse("rwlxa"))
        fed = deploy_federation(
            cluster,
            "bench",
            self.shards,
            make_auth=lambda: ServerAuth(credential_store=trust),
            root_acl=root,
            replicas=self.replicas,
        )
        client = FederatedClient.connect(
            cluster.network,
            CLIENT,
            "bench",
            fed.catalog_host,
            [GlobusAuthenticator(wallet)],
            replicas=self.replicas,
        )
        self.model = FedModel()
        self.deck: list[int] = []
        self.names = [f"p{i:02d}" for i in range(self.prefixes)]
        rng.shuffle(self.names)
        for prefix in self.names:
            client.mkdir(f"/{prefix}")
            self.model.dirs[prefix] = set()
            self.model.files[prefix] = {}
            for slot in rng.sample(self.slots, 3):
                data = self.payload(rng)
                client.put(data, f"/{prefix}/{slot}")
                self.model.files[prefix][slot] = data
        self.draw = zipf_sampler(self.prefixes, 1.1)
        self.cluster, self.fed, self.client = cluster, fed, client
        self.probe = client.client_for(f"/{self.names[0]}")[0]
        if not self.smoke:
            self.warm_up()

    def payload(self, rng: Random) -> bytes:
        """Sizes come from a shuffled deck in the exact proportions, so the
        bytes stored (and so memory) barely depend on the seed."""
        if not self.deck:
            self.deck = [kib for kib, n in self.sizes_kib for _ in range(n)]
            rng.shuffle(self.deck)
        return rng.randbytes(self.deck.pop() * 1024)

    def make_round(self, index) -> list[Op]:
        rng = self.rng(index)
        count = self.round_ops // 15 if self.smoke else self.round_ops
        return [self.next_op(rng, kind) for kind in shuffled_mix(rng, self.mix, count)]

    def fits(self, kind: str, prefix: str) -> bool:
        """Can an op of ``kind`` succeed in ``prefix`` right now?"""
        files, dirs = self.model.files[prefix], self.model.dirs[prefix]
        if kind in ("stat", "get", "unlink", "move"):
            return bool(files)
        if kind == "rename":
            return 0 < len(files) < len(self.slots)
        if kind == "mkdir":
            return len(dirs) < len(self.subdirs)
        if kind == "rmdir":
            return bool(dirs)
        return True

    def next_op(self, rng: Random, kind: str) -> Op:
        """An op of ``kind`` on the model's current state, applied to the
        model.  The prefix is redrawn until the op can succeed there, so
        the mix stays exact; a put stands in if no draw fits."""
        model = self.model
        for _ in range(16):
            prefix = self.names[self.draw(rng)]
            if self.fits(kind, prefix):
                break
        else:
            kind = "put"
        files, dirs = model.files[prefix], model.dirs[prefix]
        name = rng.choice(sorted(files)) if files else None
        base = f"/{prefix}"
        if kind == "stat":
            if dirs and rng.random() < 0.2:
                return Op(kind, 0, (f"{base}/{rng.choice(sorted(dirs))}",), ("dir", 0o755))
            return Op(kind, 0, (f"{base}/{name}",), file_stat(files[name]))
        if kind == "get":
            return Op(kind, 0, (f"{base}/{name}",), files[name])
        if kind == "readdir":
            return Op(kind, 0, (base,), model.listing(prefix))
        if kind == "unlink":
            del files[name]
            return Op(kind, 0, (f"{base}/{name}",), None)
        if kind == "rename":
            dst = rng.choice([s for s in self.slots if s not in files])
            files[dst] = files.pop(name)
            return Op(kind, 0, (f"{base}/{name}", f"{base}/{dst}"), None)
        if kind == "move":
            roomy = [
                p for p in self.names
                if p != prefix and len(model.files[p]) < len(self.slots)
            ]
            if roomy:
                other = rng.choice(roomy)
                dst = rng.choice([s for s in self.slots if s not in model.files[other]])
                model.files[other][dst] = files.pop(name)
                return Op("rename", 0, (f"{base}/{name}", f"/{other}/{dst}"), None)
            kind = "put"
        if kind == "mkdir":
            sub = rng.choice([d for d in self.subdirs if d not in dirs])
            dirs.add(sub)
            return Op(kind, 0, (f"{base}/{sub}",), None)
        if kind == "rmdir":
            sub = rng.choice(sorted(dirs))
            dirs.remove(sub)
            return Op(kind, 0, (f"{base}/{sub}",), None)
        slot = rng.choice(self.slots)
        data = files[slot] = self.payload(rng)
        return Op("put", 0, (data, f"{base}/{slot}"), len(data))

    def execute(self, op: Op) -> Any:
        return getattr(self.client, op.kind)(*op.args)

    def telemetry_series(self) -> int:
        return sum(series_count(d.telemetry) for d in self.fed.shards.values())


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BoxedMake, BoxedIO, ChirpRead, ChirpSessions, FedRW)
}
