"""Fast lane: read-op memoization + frame coalescing on a read-heavy load.

The hot path is measured here end to end: a client hammers
``stat``/``access``/``getacl`` over a small staged tree, once with the
fast lane off (one wire frame per op, full guard + monitor walk every
time) and once with it on (a ``ReadCache`` at the pipeline mouth and the
ops riding coalesced batch envelopes).  Simulated time captures both
savings: cache hits skip the handler's kernel calls, and coalescing
amortizes the per-frame round trip across up to ``BATCH_LIMIT`` ops.

The bench also *proves* the fast lane is a pure optimization: both runs
must produce identical per-op payloads, field for field, before any
throughput number is reported.

The gate (``repro.bench.gate``) checks the dimensionless ``speedup_x``
against ``benchmarks/baseline.json`` — the acceptance bar is ≥2x on this
read-heavy mix.

Run:  pytest benchmarks/bench_fastlane.py -s
Smoke (CI):  REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_fastlane.py -q
"""

import pytest

from repro.bench import Table, banner, bench_scale, save_and_print, write_bench_json
from repro.chirp import ChirpClient, ChirpServer, GlobusAuthenticator, ServerAuth
from repro.chirp.protocol import BATCH_LIMIT
from repro.core import Acl, ReadCache, Rights
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel.timing import NS_PER_S
from repro.net import Cluster

SERVER = "server1.nowhere.edu"
CLIENT = "laptop.cs.nowhere.edu"

#: Files staged under the hot directory.
FILES = 8
#: Passes over the tree; every pass repeats the same read mix, which is
#: exactly the workload shape memoization exists for.
ROUNDS = bench_scale(full=60, smoke=12)

#: The acceptance bar (see ISSUE / baseline.json's gated floor).
MIN_FASTLANE_SPEEDUP = 2.0


def build_world(read_cache=None):
    """One GSI-authenticated server with a staged read-only tree."""
    cluster = Cluster()
    cluster.add_machine(SERVER)
    cluster.add_machine(CLIENT)
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallet = provision_user(ca, trust, "/O=UnivNowhere/CN=Fred")
    machine = cluster.machine(SERVER)
    owner = machine.add_user("dthain")
    server = ChirpServer(
        machine,
        owner,
        network=cluster.network,
        auth=ServerAuth(credential_store=trust),
        read_cache=read_cache,
    )
    acl = Acl()
    acl.set_entry("globus:/O=UnivNowhere/*", Rights.parse("rlv(rwlax)"))
    server.set_root_acl(acl)
    server.serve()
    client = ChirpClient.connect(cluster.network, CLIENT, SERVER)
    client.authenticate([GlobusAuthenticator(wallet)])
    client.mkdir("/hot")
    for i in range(FILES):
        client.put(b"payload " * 64, f"/hot/f{i}")
    return cluster, client


def read_frames() -> list[dict]:
    """The read-heavy op mix as raw request frames, in issue order."""
    paths = ["/hot"] + [f"/hot/f{i}" for i in range(FILES)]
    frames = []
    for _ in range(ROUNDS):
        for path in paths:
            frames.append({"op": "stat", "path": path})
            frames.append({"op": "access", "path": path, "letters": "l"})
            frames.append({"op": "getacl", "path": path})
    return frames


def _payload(reply: dict) -> dict:
    return {k: v for k, v in reply.items() if k != "ok"}


def run_plain(client, frames) -> list[dict]:
    """One wire frame per op — the baseline everyone pays today."""
    return [
        _payload(client._call(f["op"], **{k: v for k, v in f.items() if k != "op"}))
        for f in frames
    ]


def run_coalesced(client, frames) -> list[dict]:
    """The same ops in batch envelopes of up to ``BATCH_LIMIT``."""
    out = []
    for start in range(0, len(frames), BATCH_LIMIT):
        for slot in client.batch(frames[start : start + BATCH_LIMIT]):
            assert slot.get("ok"), slot
            out.append(_payload(slot))
    return out


def measure_read_heavy() -> dict:
    """ops/sec of simulated time, fast lane off vs on, results compared."""
    frames = read_frames()

    cluster, client = build_world(read_cache=None)
    t0 = cluster.clock.now_ns
    baseline = run_plain(client, frames)
    off_s = (cluster.clock.now_ns - t0) / NS_PER_S

    cluster, client = build_world(read_cache=ReadCache())
    t0 = cluster.clock.now_ns
    fast = run_coalesced(client, frames)
    on_s = (cluster.clock.now_ns - t0) / NS_PER_S

    assert baseline == fast, "fast lane changed a read result"
    ops = len(frames)
    return {
        "ops": ops,
        "identical": baseline == fast,
        "ops_per_sec_off": ops / off_s,
        "ops_per_sec_on": ops / on_s,
        "speedup_x": off_s / on_s,
    }


@pytest.fixture(scope="module")
def fastlane_results():
    return {"read_heavy": measure_read_heavy()}


def test_read_heavy_speedup(fastlane_results):
    row = fastlane_results["read_heavy"]
    assert row["identical"], "cache on vs off diverged"
    assert row["speedup_x"] >= MIN_FASTLANE_SPEEDUP, (
        f"fast lane only {row['speedup_x']:.2f}x on the read-heavy mix "
        f"(bar: {MIN_FASTLANE_SPEEDUP:.1f}x)"
    )


def test_fastlane_report(benchmark, fastlane_results):
    """Print/persist the table and the gated JSON ``fastlane`` section."""

    def build() -> str:
        row = fastlane_results["read_heavy"]
        table = Table(headers=("workload", "off ops/s", "on ops/s", "speedup"))
        table.add(
            f"read-heavy ({row['ops']} ops)",
            f"{row['ops_per_sec_off']:.0f}",
            f"{row['ops_per_sec_on']:.0f}",
            f"{row['speedup_x']:.2f}x",
        )
        write_bench_json(
            "fig5",
            "fastlane",
            {
                "read_heavy": {
                    "ops": row["ops"],
                    "ops_per_sec_off": round(row["ops_per_sec_off"], 1),
                    "ops_per_sec_on": round(row["ops_per_sec_on"], 1),
                    "speedup_x": round(row["speedup_x"], 2),
                }
            },
        )
        text = (
            banner("Fast lane: memoized reads + coalesced frames")
            + "\n"
            + table.render()
        )
        save_and_print("fastlane", text)
        return text

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    assert "speedup" in text
