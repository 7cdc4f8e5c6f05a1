"""Replication: read availability under a shard blackout, quorum-write cost.

Two deterministic measurements on the replicated federation
(:mod:`repro.chirp.federation` with ``replicas=3``):

* **Blackout availability** — stage files across many prefixes, black out
  one replica entirely, then drive a read mix (get / stat / readdir) over
  every prefix.  With three replicas per prefix every read still has two
  live owners, so read availability is 100% while the same drill at one
  replica loses every prefix the dark shard owns.  The acceptance bar:
  ``read_availability_pct == 100.0`` at k=3, held exactly by the gate.
* **Quorum-write overhead** — the same write mix at k=1 and k=3, timed on
  the simulated clock.  A quorum write applies to every replica, so k=3
  costs roughly 3x the wire time of k=1; the gate holds the measured
  ``write_overhead_x`` so replication never silently gets costlier.

Both land in the gated ``replication`` section of ``BENCH_fig5.json``.

Run:  pytest benchmarks/bench_replication.py --benchmark-only -s
Smoke (CI):  REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_replication.py -q
"""

import pytest

from repro.bench import Table, banner, bench_scale, save_and_print, write_bench_json
from repro.chirp import (
    FederatedClient,
    GlobusAuthenticator,
    ServerAuth,
    deploy_federation,
)
from repro.core import Acl, Rights
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel.errno import KernelError
from repro.kernel.timing import NS_PER_S
from repro.net import Cluster

SHARDS = 4
PREFIXES = bench_scale(full=32, smoke=16)
PAYLOAD = bench_scale(full=8 * 1024, smoke=2 * 1024)

LAPTOP = "bench.nowhere.edu"
FRED_DN = "/O=UnivNowhere/CN=Fred"


def make_world(replicas: int):
    cluster = Cluster()
    cluster.add_machine(LAPTOP)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, FRED_DN)
    acl = Acl()
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlav(rwlax)"))
    federation = deploy_federation(
        cluster,
        f"repl{replicas}",
        SHARDS,
        make_auth=lambda: ServerAuth(credential_store=trust),
        root_acl=acl,
        replicas=replicas,
    )
    client = FederatedClient.connect(
        cluster.network,
        LAPTOP,
        f"repl{replicas}",
        federation.catalog_host,
        [GlobusAuthenticator(wallet)],
        replicas=replicas,
    )
    return cluster, federation, client


def blackout_read_mix(replicas: int) -> dict:
    """Stage, darken one shard, then read everything: who still answers?"""
    cluster, federation, client = make_world(replicas)
    payload = bytes(i % 251 for i in range(PAYLOAD))
    for i in range(PREFIXES):
        client.mkdir(f"/job{i:03d}")
        client.put(payload, f"/job{i:03d}/input.dat")
    victim = sorted(federation.shards)[0]
    federation.blackout_shard(victim, 0, 10**9)
    attempted = ok = 0
    for i in range(PREFIXES):
        d = f"/job{i:03d}"
        for read in (
            lambda: client.get(f"{d}/input.dat") == payload,
            lambda: client.stat(f"{d}/input.dat").size == PAYLOAD,
            lambda: client.readdir(d) == ["input.dat"],
        ):
            attempted += 1
            try:
                assert read()
                ok += 1
            except KernelError:
                pass
    stats = client.stats
    client.close()
    return {
        "replicas": replicas,
        "reads_attempted": attempted,
        "reads_ok": ok,
        "read_availability_pct": round(100.0 * ok / attempted, 2),
        "failover_reads": stats.failover_reads,
    }


def write_mix(replicas: int) -> dict:
    """The write mix, timed on the simulated clock."""
    cluster, federation, client = make_world(replicas)
    payload = bytes(i % 251 for i in range(PAYLOAD))
    start_ns = cluster.clock.now_ns
    for i in range(PREFIXES):
        d = f"/job{i:03d}"
        client.mkdir(d)
        client.put(payload, f"{d}/input.dat")
        client.rename(f"{d}/input.dat", f"{d}/staged.dat")
    elapsed_ns = cluster.clock.now_ns - start_ns
    stats = client.stats
    client.close()
    return {
        "replicas": replicas,
        "write_s": elapsed_ns / NS_PER_S,
        "quorum_writes": stats.quorum_writes,
    }


@pytest.fixture(scope="module")
def replication_results():
    """One measured run per drill (deterministic, so once is exact)."""
    return {
        "avail_k3": blackout_read_mix(3),
        "avail_k1": blackout_read_mix(1),
        "write_k1": write_mix(1),
        "write_k3": write_mix(3),
    }


def test_reads_stay_fully_available_through_a_blackout(
    benchmark, replication_results
):
    row = replication_results["avail_k3"]
    single = replication_results["avail_k1"]
    benchmark.extra_info.update(row)
    benchmark.pedantic(blackout_read_mix, args=(3,), rounds=1, iterations=1)
    # the acceptance bar: 100% of reads answered while a replica is dark
    assert row["read_availability_pct"] == 100.0
    assert row["failover_reads"] > 0  # the dark shard really was routed to
    # and the drill is real: without replication the same outage loses data
    assert single["read_availability_pct"] < 100.0


def test_quorum_write_overhead_is_bounded(benchmark, replication_results):
    k1, k3 = replication_results["write_k1"], replication_results["write_k3"]
    overhead = k3["write_s"] / k1["write_s"]
    benchmark.extra_info["write_overhead_x"] = round(overhead, 3)
    benchmark.pedantic(write_mix, args=(3,), rounds=1, iterations=1)
    assert k3["quorum_writes"] > 0 and k1["quorum_writes"] == 0
    # three sequential replica applies: ~3x wire time, never wildly more
    assert overhead < 4.0, f"quorum writes cost {overhead:.2f}x"


def test_replication_report(benchmark, replication_results):
    """Print/persist the replication table and the gated JSON section."""

    def build() -> str:
        avail = replication_results["avail_k3"]
        single = replication_results["avail_k1"]
        k1, k3 = replication_results["write_k1"], replication_results["write_k3"]
        overhead = k3["write_s"] / k1["write_s"]
        table = Table(headers=("drill", "replicas", "result"))
        table.add(
            "blackout reads", 3, f"{avail['read_availability_pct']:.1f}% available"
        )
        table.add(
            "blackout reads", 1, f"{single['read_availability_pct']:.1f}% available"
        )
        table.add("write mix", 1, f"{k1['write_s'] * 1e3:.2f} ms")
        table.add(
            "write mix", 3, f"{k3['write_s'] * 1e3:.2f} ms ({overhead:.2f}x)"
        )
        payload = {
            "blackout_availability": avail,
            "blackout_availability_k1": single,
            "quorum_overhead": {
                "write_overhead_x": round(overhead, 3),
                "k1_write_s": round(k1["write_s"], 6),
                "k3_write_s": round(k3["write_s"], 6),
                "quorum_writes": k3["quorum_writes"],
            },
        }
        write_bench_json("fig5", "replication", payload)
        text = (
            banner("Replication: blackout availability and quorum-write cost")
            + "\n"
            + table.render()
            + f"\n\nfailover reads during the k=3 blackout: "
            f"{avail['failover_reads']}"
        )
        save_and_print("replication", text)
        return text

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    assert "available" in text
