"""The /chirp Parrot driver: boxed processes reaching remote storage."""

import pytest

from repro.chirp import ChirpDriver
from repro.chirp.auth import GlobusAuthenticator
from repro.core.box import IdentityBox
from repro.kernel import Errno, OpenFlags
from tests.chirp.conftest import (
    CLIENT_HOST,
    DEFAULT_RETRY,
    SERVER_HOST,
    requires_perfect_network,
)
from tests.helpers import boxed_read_file, boxed_write_file, run_calls


@pytest.fixture
def client_box(cluster, server, fred_wallet):
    """An identity box on the client machine with /chirp mounted."""
    machine = cluster.machine(CLIENT_HOST)
    user = machine.add_user("fred")
    box = IdentityBox(machine, user, "globus:/O=UnivNowhere/CN=Fred")
    driver = ChirpDriver(
        cluster.network,
        CLIENT_HOST,
        [GlobusAuthenticator(fred_wallet)],
        retry=DEFAULT_RETRY,
    )
    box.supervisor.mount("/chirp", driver)
    return box


def chirp_path(sub: str) -> str:
    return f"/chirp/{SERVER_HOST}{sub}"


def test_boxed_process_reads_remote_file(cluster, client_box, fred):
    fred.mkdir("/data")
    fred.put(b"remote content", "/data/f.txt")
    fred.setacl("/data", "globus:/O=UnivNowhere/*", "rl")
    assert boxed_read_file(client_box, chirp_path("/data/f.txt")) == b"remote content"


def test_boxed_process_writes_remote_file(cluster, client_box, fred):
    data = b"R" * 50_000  # big enough for chunked channel transfers
    # create the directory first (reserve right), then write
    results = run_calls(
        [("mkdir", chirp_path("/work2"))], machine=client_box.machine, box=client_box
    )
    assert results == [0]
    assert boxed_write_file(client_box, chirp_path("/work2/out.dat"), data) == len(data)
    assert fred.get("/work2/out.dat") == data


def test_boxed_metadata_ops_on_remote(cluster, client_box, fred):
    fred.mkdir("/meta")
    fred.put(b"abc", "/meta/f")
    results = run_calls(
        [
            ("stat", chirp_path("/meta/f")),
            ("readdir", chirp_path("/meta")),
            ("getacl", chirp_path("/meta")),
        ],
        machine=client_box.machine,
        box=client_box,
    )
    assert results[0].st_size == 3
    assert results[1] == ["f"]
    assert "globus:/O=UnivNowhere/CN=Fred rwlxa" in results[2]


def test_server_side_acls_enforced_for_boxed_client(cluster, client_box, heidi, fred):
    fred.mkdir("/private")
    fred.put(b"secret", "/private/s")
    fred.setacl("/private", "globus:/O=UnivNowhere/CN=Fred", "-")  # even fred out
    assert boxed_read_file(client_box, chirp_path("/private/s")) == -Errno.EACCES


def test_chdir_into_remote_directory(cluster, client_box, fred):
    fred.mkdir("/wd")
    fred.put(b"here", "/wd/file")
    fred.setacl("/wd", "globus:/O=UnivNowhere/*", "rwl")
    results = run_calls(
        [("chdir", chirp_path("/wd")), ("getcwd",)],
        machine=client_box.machine,
        box=client_box,
    )
    assert results[0] == 0
    assert results[1] == chirp_path("/wd")


def test_remote_executable_fetched_and_run_locally(cluster, client_box, fred, server):
    seen = {}

    def tool(proc, args):
        seen["identity"] = yield proc.sys.get_user_name()
        return 0

    # the program must be registered on the *client* machine, where it runs
    client_box.machine.register_program("tool", tool)
    fred.mkdir("/bin")
    fred.put(b"#!repro:tool\n", "/bin/tool.exe", mode=0o755)

    def body(proc, args):
        pid = yield proc.sys.spawn(chirp_path("/bin/tool.exe"), ())
        proc.scratch["pid"] = pid
        yield proc.sys.waitpid()
        return 0

    proc = client_box.spawn(body)
    client_box.machine.run_to_completion()
    pid = proc.context.scratch["pid"]
    assert pid > 0
    # the child was reaped; what it saw comes back through ``seen``
    assert seen["identity"] == "globus:/O=UnivNowhere/CN=Fred"


def test_remote_exec_right_required_for_local_run(cluster, client_box, fred):
    fred.mkdir("/noexec")
    fred.put(b"#!repro:tool\n", "/noexec/t.exe")
    fred.setacl("/noexec", "globus:/O=UnivNowhere/CN=Fred", "rwl")  # drop x
    results = run_calls(
        [("spawn", chirp_path("/noexec/t.exe"), ())],
        machine=client_box.machine,
        box=client_box,
    )
    assert results == [-Errno.EACCES]


def test_unknown_server_component(cluster, client_box):
    results = run_calls(
        [("stat", "/chirp")], machine=client_box.machine, box=client_box
    )
    assert results == [-Errno.ENOENT]


@requires_perfect_network  # asserts an exact connection count
def test_connections_cached_per_server(cluster, client_box, fred, server):
    fred.mkdir("/c")
    fred.setacl("/c", "globus:/O=UnivNowhere/*", "rwl")
    before = server.stats.connections
    for name in ("a", "b", "c"):
        boxed_write_file(client_box, chirp_path(f"/c/{name}"), b"1")
    assert server.stats.connections == before + 1  # one cached connection
