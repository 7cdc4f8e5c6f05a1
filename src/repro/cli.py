"""Command-line front end: drive the reproduction's demos and quick benches.

Usage::

    python -m repro <command>

Commands:

``quickstart``
    the Figure-2 interactive session,
``workflow``
    the Figure-3 distributed stage/exec/fetch workflow,
``survey``
    the Figure-1 identity-mapping matrix, measured live,
``audit``
    the untrusted-program forensic demo (§9),
``fig5a`` / ``fig5b``
    quick single-run versions of the evaluation tables (the full harness
    lives in ``benchmarks/``),
``metrics``
    the Figure-3 workflow run under the telemetry layer, dumping the
    full metrics/trace snapshot as JSON (counters, latency histograms
    with percentiles, the client→server→syscall span tree, the
    reference monitor's per-errno denial breakdown, and a
    ``replication`` section — quorum writes, failover reads, read
    repairs, and anti-entropy repair totals from a replicated-
    federation blackout drill, read off the ``repl.*`` counters),
``fuzz``
    the coverage-guided scenario fuzzer (:mod:`repro.fuzz`): fork
    thousands of variant worlds from one warm snapshot, mutate op
    scripts / identities / ACL grants / fault schedules, keep inputs
    that reach new coverage, and shrink any containment violation to a
    minimal machine-readable reproducer.

This module stays import-cheap and side-effect-free so `python -m repro`
startup is instant; each command imports what it needs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable


def _run_quickstart(_args: argparse.Namespace) -> int:
    from repro import AuditLog, IdentityBox, Machine

    machine = Machine()
    dthain = machine.add_user("dthain")
    owner = machine.host_task(dthain)
    machine.write_file(owner, "/home/dthain/secret", b"top secret", mode=0o600)
    audit = AuditLog()
    box = IdentityBox(machine, dthain, "Freddy", audit=audit)

    from repro.kernel import OpenFlags

    def session(proc, args):
        name = yield proc.sys.get_user_name()
        print(f"% whoami\n{name}")
        denied = yield proc.sys.open("/home/dthain/secret", OpenFlags.O_RDONLY)
        print(f"% cat /home/dthain/secret\ncat: Permission denied ({denied})")
        fd = yield proc.sys.open("mydata", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        yield proc.sys.write(fd, proc.alloc_bytes(b"notes"), 5)
        yield proc.sys.close(fd)
        names = yield proc.sys.readdir(".")
        print(f"% ls\n{'  '.join(names)}")
        return 0

    proc = box.run(session)
    print(f"\n[exit {proc.exit_status}] audit:")
    print(audit.render())
    return 0


def _figure3_world(cluster, telemetry=None):
    """Figure 3's world on ``cluster``: a GSI-authenticated Chirp server
    on server1 that grants Fred's CA ``rlv(rwlax)`` and runs the ``sim``
    program, and a client on the laptop.  ``telemetry``, when given, is
    shared by the server machine and the client, so remote execs make one
    nested trace.  Returns ``(server, client, trust, wallet)``."""
    from repro.chirp import ChirpClient, ChirpServer, ServerAuth
    from repro.core import Acl, Rights
    from repro.gsi import CertificateAuthority, CredentialStore, provision_user
    from repro.kernel import OpenFlags

    server_machine = cluster.add_machine("server1.nowhere.edu")
    cluster.add_machine("laptop.cs.nowhere.edu")
    if telemetry is not None:
        server_machine.telemetry = telemetry
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, "/O=UnivNowhere/CN=Fred")
    owner = server_machine.add_user("dthain")
    server = ChirpServer(
        server_machine, owner, network=cluster.network,
        auth=ServerAuth(credential_store=trust),
    )
    acl = Acl()
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    server.set_root_acl(acl)
    server.serve()

    def sim(proc, _args):
        yield proc.compute(ms=100)
        fd = yield proc.sys.open("out.dat", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        yield proc.sys.write(fd, proc.alloc_bytes(b"results!\n" * 100), 900)
        yield proc.sys.close(fd)
        return 0

    server_machine.register_program("sim", sim)
    client = ChirpClient.connect(
        cluster.network, "laptop.cs.nowhere.edu", "server1.nowhere.edu",
        telemetry=telemetry,
    )
    return server, client, trust, wallet


def _run_workflow(_args: argparse.Namespace) -> int:
    from repro import Cluster
    from repro.chirp import GlobusAuthenticator

    cluster = Cluster()
    _server, client, _trust, wallet = _figure3_world(cluster)
    print("authenticated as", client.authenticate([GlobusAuthenticator(wallet)]))
    client.mkdir("/work")
    print("reserved /work with ACL:", client.getacl("/work").strip())
    client.put(b"#!repro:sim\n", "/work/sim.exe", mode=0o755)
    print("exec status:", client.exec("/work/sim.exe", cwd="/work"))
    print("retrieved", len(client.get("/work/out.dat")), "bytes of output")
    print(f"simulated time: {cluster.clock.now_ns / 1e6:.2f} ms")
    return 0


def _run_survey(_args: argparse.Namespace) -> int:
    from repro.core.mapping import evaluate_all, render_table

    print(render_table(evaluate_all()))
    return 0


def _run_audit(_args: argparse.Namespace) -> int:
    from repro import AuditLog, IdentityBox, Machine
    from repro.kernel import OpenFlags

    machine = Machine()
    alice = machine.add_user("alice")
    task = machine.host_task(alice)
    machine.write_file(task, "/home/alice/.secret-key", b"KEY", mode=0o600)
    audit = AuditLog()
    box = IdentityBox(machine, alice, "BigSoftwareCorp", audit=audit)

    def downloaded(proc, args):
        fd = yield proc.sys.open("cache.bin", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        yield proc.sys.write(fd, proc.alloc_bytes(b"\x00" * 100), 100)
        yield proc.sys.close(fd)
        yield proc.sys.open("/home/alice/.secret-key", OpenFlags.O_RDONLY)
        return 0

    box.run(downloaded)
    print("forensic audit for BigSoftwareCorp:")
    print(audit.render())
    return 0


def _run_fig5a(args: argparse.Namespace) -> int:
    from repro.workloads import MICROBENCHES, measure_microbench

    print(f"{'syscall':<12} {'unmod us':>10} {'boxed us':>10} {'slowdown':>9}")
    for spec in MICROBENCHES:
        r = measure_microbench(spec, iterations=args.iterations)
        print(
            f"{r.name:<12} {r.unmodified_us:>10.2f} {r.boxed_us:>10.2f} "
            f"{r.slowdown:>8.1f}x"
        )
    return 0


def _run_fig5b(args: argparse.Namespace) -> int:
    from repro.workloads import ALL_APPS, measure_app

    print(f"{'app':<8} {'base s':>10} {'boxed s':>10} {'overhead %':>11} {'paper %':>8}")
    for profile in ALL_APPS:
        r = measure_app(profile, scale=args.scale)
        print(
            f"{profile.name:<8} {r.base_s / args.scale:>10.1f} "
            f"{r.boxed_s / args.scale:>10.1f} {r.overhead_pct:>11.2f} "
            f"{profile.paper_overhead_pct:>8.1f}"
        )
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """Replay the Figure-3 workflow instrumented; dump telemetry JSON."""
    import json

    from repro import Cluster
    from repro.chirp import GlobusAuthenticator
    from repro.core import Telemetry

    cluster = Cluster()
    # one Telemetry shared by the RPC client and the server's supervisor,
    # so remote execs produce a single nested trace
    telemetry = Telemetry(cluster.clock)
    server, client, trust, wallet = _figure3_world(cluster, telemetry)
    client.authenticate([GlobusAuthenticator(wallet)])
    client.mkdir("/work")
    client.put(b"#!repro:sim\n", "/work/sim.exe", mode=0o755)
    client.exec("/work/sim.exe", cwd="/work")
    client.get("/work/out.dat")
    # one denied op so the denial-errno breakdown has something to say
    from repro.chirp import ChirpError

    try:
        client.unlink("/.__acl")
    except ChirpError:
        pass
    out = telemetry.snapshot(spans=args.spans)
    out["denials"] = server.pipeline.stats().get("denials", {})
    out["replication"] = _replication_drill(trust, wallet)
    out["fastlane"] = _fastlane_drill(trust, wallet)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _fastlane_drill(trust, wallet) -> dict:
    """A server with the fast lane armed, driven through its states, so
    the metrics snapshot's ``fastlane`` section reports live numbers: a
    memoized read hitting, a mutation invalidating it, a batch envelope
    coalescing frames, and one principal running its op budget dry."""
    from repro import Cluster
    from repro.chirp import (
        ChirpClient,
        ChirpError,
        ChirpServer,
        GlobusAuthenticator,
        ServerAuth,
    )
    from repro.core import Acl, Admission, ReadCache, Rights, Telemetry

    cluster = Cluster()
    machine = cluster.add_machine("server1.nowhere.edu")
    cluster.add_machine("laptop.cs.nowhere.edu")
    telemetry = Telemetry(cluster.clock)
    machine.telemetry = telemetry
    owner = machine.add_user("dthain")
    server = ChirpServer(
        machine,
        owner,
        network=cluster.network,
        auth=ServerAuth(credential_store=trust),
        telemetry=telemetry,
        read_cache=ReadCache(),
        limits=Admission(rate_per_s=10.0, burst=4),
    )
    acl = Acl()
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    server.set_root_acl(acl)
    server.serve()
    client = ChirpClient.connect(
        cluster.network, "laptop.cs.nowhere.edu", "server1.nowhere.edu"
    )
    client.authenticate([GlobusAuthenticator(wallet)])
    client.mkdir("/hot")
    client.batch(
        [{"op": "stat", "path": "/hot"}, {"op": "stat", "path": "/hot"}]
    )
    client.mkdir("/hot/new")  # invalidates the memoized verdict
    try:
        while True:  # drain the budget until EAGAIN
            client.stat("/hot")
    except ChirpError:
        pass
    return {
        "cache": server.read_cache.snapshot(),
        "quota": server.limits.snapshot()["quota"],
        "batches": server.stats.batches,
        "coalesced_frames": server.stats.coalesced,
    }


def _replication_drill(trust, wallet) -> dict:
    """A replicated federation losing and regaining one replica, so the
    metrics snapshot's ``replication`` section reports live ``repl.*``
    numbers: a quorum write past a dark shard that marks it, a failover
    read, and the anti-entropy repair whose rejoin clears the mark."""
    from repro import Cluster
    from repro.chirp import (
        FederatedClient,
        GlobusAuthenticator,
        RetryPolicy,
        ServerAuth,
        deploy_federation,
    )
    from repro.core import Acl, Rights, Telemetry

    cluster = Cluster()
    cluster.add_machine("console.nowhere.edu")
    telemetry = Telemetry(cluster.clock)
    acl = Acl()
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    federation = deploy_federation(
        cluster,
        "pool",
        4,
        make_auth=lambda: ServerAuth(credential_store=trust),
        root_acl=acl,
        replicas=3,
    )
    client = FederatedClient.connect(
        cluster.network,
        "console.nowhere.edu",
        "pool",
        federation.catalog_host,
        [GlobusAuthenticator(wallet)],
        retry=RetryPolicy(max_attempts=5, seed=1),
        telemetry=telemetry,
        replicas=3,
    )
    client.mkdir("/data")
    client.put(b"replicated payload\n", "/data/f")
    victim = client.shard_of("/data")
    federation.blackout_shard(victim, 0, 10**9)
    client.get("/data/f")  # failover read off a live replica
    client.put(b"written while dark\n", "/data/g")  # 2 of 3: marks the victim
    cluster.network.faults.blackouts = ()  # the outage lifts
    client.close()
    federation.rejoin_shard(victim)  # anti-entropy repair, then the mark clears
    shard_tel = federation.shards[victim].telemetry
    return {
        "quorum_writes": telemetry.counter_total("repl.quorum_writes"),
        "quorum_failures": telemetry.counter_total("repl.quorum_failures"),
        "failover_reads": telemetry.counter_total("repl.failover_reads"),
        "marks": telemetry.counter_total("repl.marks"),
        "repairs": shard_tel.counter_total("repl.repairs"),
        "repair_files": shard_tel.counter_total("repl.repair_files"),
        "repair_bytes": shard_tel.counter_total("repl.repair_bytes"),
        "repair_removed": shard_tel.counter_total("repl.repair_removed"),
    }


def _run_fuzz(args: argparse.Namespace) -> int:
    """Run a fuzzing campaign; write corpus/coverage/reproducer artifacts."""
    import json
    from pathlib import Path

    from repro.fuzz import FuzzConfig, FuzzEngine

    surfaces = (
        ("syscall", "chirp") if args.surface == "both" else (args.surface,)
    )
    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        surfaces=surfaces,
        guided=not args.unguided,
    )
    engine = FuzzEngine(config)
    report = engine.run()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def dump(name: str, payload) -> None:
        path = out / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    dump("report.json", report)
    dump("corpus.json", report["corpus"])
    dump("coverage.json", report["coverage"])
    for index, reproducer in enumerate(report["reproducers"]):
        dump(f"reproducer-{index:03d}.json", reproducer)

    mode = "guided" if config.guided else "unguided"
    print(
        f"fuzz ({mode}): {report['executions']} execs on "
        f"{'+'.join(surfaces)} -> {report['edge_count']} coverage edges, "
        f"{len(report['corpus'])} corpus entries, "
        f"{report['violations']} violations"
    )
    print(f"artifacts in {out}/")
    if report["violations"]:
        for index, reproducer in enumerate(report["reproducers"]):
            print(f"  reproducer-{index:03d}.json: {reproducer['verdict']}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Identity Boxing (Thain, SC'05) — reproduction demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="Figure 2: an interactive identity box")
    sub.add_parser("workflow", help="Figure 3: remote stage/exec/fetch via Chirp")
    sub.add_parser("survey", help="Figure 1: the identity-mapping matrix, measured")
    sub.add_parser("audit", help="§9: untrusted program under a credentialed name")

    p5a = sub.add_parser("fig5a", help="quick Figure 5(a) syscall-latency table")
    p5a.add_argument("--iterations", type=int, default=1000)

    p5b = sub.add_parser("fig5b", help="quick Figure 5(b) application-overhead table")
    p5b.add_argument("--scale", type=float, default=0.005)

    pm = sub.add_parser(
        "metrics", help="run the Figure-3 workflow instrumented; dump JSON telemetry"
    )
    pm.add_argument(
        "--spans", type=int, default=50, help="max trace spans to include"
    )

    pf = sub.add_parser(
        "fuzz", help="coverage-guided scenario fuzzing of the security boundary"
    )
    pf.add_argument("--seed", type=int, default=0, help="campaign RNG seed")
    pf.add_argument(
        "--budget", type=int, default=500, help="total scenario executions"
    )
    pf.add_argument(
        "--surface",
        choices=["syscall", "chirp", "both"],
        default="syscall",
        help="which boundary to fuzz",
    )
    pf.add_argument(
        "--unguided",
        action="store_true",
        help="disable coverage feedback (the random-sampling baseline)",
    )
    pf.add_argument(
        "--out", default="fuzz-out", help="artifact directory (created)"
    )

    return parser


COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "quickstart": _run_quickstart,
    "workflow": _run_workflow,
    "survey": _run_survey,
    "audit": _run_audit,
    "fig5a": _run_fig5a,
    "fig5b": _run_fig5b,
    "metrics": _run_metrics,
    "fuzz": _run_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
