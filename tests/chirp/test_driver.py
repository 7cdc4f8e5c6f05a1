"""The /chirp Parrot driver: boxed processes reaching remote storage."""

import stat

import pytest

from repro.chirp import ChirpDriver
from repro.chirp.auth import GlobusAuthenticator
from repro.core.box import IdentityBox
from repro.kernel import Errno, OpenFlags
from repro.kernel.inode import StatResult
from repro.kernel.syscalls import SEEK_CUR, SEEK_END, SEEK_SET
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


# ---------------------------------------------------------------------- #
# differential: each ChirpDriver op against LocalDriver on the same tree
# ---------------------------------------------------------------------- #

#: placeholders: the tree's directory, the base of a symlink target in
#: the driver's own namespace, and the descriptor the last ``open`` gave
D, T, FD = "<dir>", "<target>", "<fd>"

RDWR = OpenFlags.O_RDWR

#: op -> the calls one boxed program makes after the tree is set up
DIFFERENTIAL_CASES = {
    "lseek": [
        ("open", f"{D}/f", RDWR),
        ("lseek", FD, 3, SEEK_SET),
        ("lseek", FD, 2, SEEK_CUR),
        ("read", FD, 3),
        ("lseek", FD, -1, SEEK_END),
        ("read", FD, 4),
        ("lseek", FD, -100, SEEK_CUR),  # negative result: EINVAL
        ("lseek", FD, 0, 7),  # no such whence: EINVAL
        ("lseek", FD, 0, SEEK_CUR),  # a refused seek left the offset alone
        ("close", FD),
    ],
    "pread": [
        ("open", f"{D}/f", OpenFlags.O_RDONLY),
        ("pread", FD, 5, 6),
        ("pread", FD, 5, 100),  # past EOF: empty
        ("pread", FD, 64, 0),
        ("close", FD),
    ],
    "ftruncate": [
        ("open", f"{D}/f", RDWR),
        ("ftruncate", FD, 5),
        ("fstat", FD),
        ("pread", FD, 64, 0),
        ("ftruncate", FD, 20),  # grows with zeros
        ("pread", FD, 64, 0),
        ("close", FD),
        ("open", f"{D}/f", OpenFlags.O_RDONLY),
        ("ftruncate", FD, 0),  # not open for writing: EBADF
        ("close", FD),
    ],
    "fstat": [
        ("open", f"{D}/f", OpenFlags.O_RDONLY),
        ("fstat", FD),
        ("close", FD),
        ("open", f"{D}/sub", OpenFlags.O_RDONLY),
        ("fstat", FD),
        ("close", FD),
    ],
    "lstat": [
        ("lstat", f"{D}/l"),
        ("lstat", f"{D}/f"),
        ("lstat", f"{D}/sub"),
        ("lstat", f"{D}/missing"),
    ],
    "readlink": [
        ("readlink", f"{D}/l"),
        ("readlink", f"{D}/f"),  # not a symlink: EINVAL
        ("readlink", f"{D}/missing"),
    ],
    "rmdir": [
        ("rmdir", f"{D}/sub"),
        ("rmdir", f"{D}/sub"),
        ("rmdir", f"{D}/f"),
        ("rmdir", D),  # not empty
        ("readdir", D),
    ],
    "unlink": [
        ("unlink", f"{D}/f"),
        ("unlink", f"{D}/f"),
        ("unlink", f"{D}/sub"),
        ("unlink", f"{D}/l"),  # the link, not its target
        ("readdir", D),
    ],
    "symlink": [
        ("symlink", f"{T}/f", f"{D}/l2"),
        ("symlink", f"{T}/f", f"{D}/l2"),  # exists
        ("symlink", f"{T}/f", f"{D}/missing/l3"),
        ("lstat", f"{D}/l2"),
        ("readlink", f"{D}/l2"),
        ("stat", f"{D}/l2"),  # follows to f
    ],
    "truncate": [
        ("truncate", f"{D}/f", 4),
        ("stat", f"{D}/f"),
        ("truncate", f"{D}/f", 12),
        ("stat", f"{D}/f"),
        ("truncate", f"{D}/sub", 0),
        ("truncate", f"{D}/missing", 0),
    ],
    "setacl": [
        ("setacl", D, "globus:/O=Elsewhere/CN=Ann", "rl"),
        ("setacl", D, "globus:/O=Elsewhere/CN=Ann", "rq"),  # no such right
        ("setacl", D, "not a subject", "rl"),
        ("setacl", f"{D}/missing", "globus:/O=Elsewhere/CN=Ann", "rl"),
        ("setacl", D, "globus:/O=Elsewhere/CN=Ann", "-"),
    ],
}


def run_script(box, calls, base, target_base):
    """Run ``calls`` as one boxed program; read results are bytes."""
    results = []

    def fill(arg, fd):
        if arg == FD:
            return fd
        if isinstance(arg, str):
            return arg.replace(D, base).replace(T, target_base)
        return arg

    def body(proc, args):
        fd = None
        for name, *cargs in calls:
            cargs = [fill(a, fd) for a in cargs]
            if name in ("read", "pread"):
                buf = proc.alloc(64)
                n = yield getattr(proc.sys, name)(cargs[0], buf, *cargs[1:])
                result = proc.read_buffer(buf, n) if isinstance(n, int) and n >= 0 else n
            else:
                result = yield getattr(proc.sys, name)(*cargs)
            if name == "open":
                fd = result
            results.append(result)
        return 0

    box.spawn(body, comm="differential")
    box.machine.run()
    return results


def comparable(result, target_base, stored_base):
    """What both drivers must agree on: a remote stat fakes mode bits,
    owner and inode (the server's user space is hidden), so a stat
    compares by file type, size and link count.  A symlink's size is the
    length of the target as stored, which differs by its base.  A string
    (a readlink answer) must be the target the script named, in full."""
    if isinstance(result, StatResult):
        size = result.st_size
        if stat.S_ISLNK(result.st_mode):
            size -= len(stored_base)
        return (stat.S_IFMT(result.st_mode), size, result.st_nlink)
    if isinstance(result, str):
        return result.replace(target_base, T, 1) if result.startswith(target_base) else result
    if isinstance(result, list):
        return sorted(result)
    return result


SETUP = [
    ("mkdir", D),
    ("mkdir", f"{D}/sub"),
    ("symlink", f"{T}/f", f"{D}/l"),
]


@pytest.mark.parametrize("op", sorted(DIFFERENTIAL_CASES))
def test_chirp_driver_ops_match_the_local_driver(cluster, client_box, server, op):
    """A boxed program gets the same results and errnos from a tree on a
    Chirp server (``ChirpDriver``) as from the same tree on its own
    machine (``LocalDriver``, under the box's local ACL policy)."""
    local_dir = f"{client_box.home}/diff"
    remote_dir = chirp_path("/diff")
    views = []
    for base, target_base, stored_base in [
        (local_dir, local_dir, local_dir),
        # a remote symlink target is a protocol path, which readlink
        # answers; the server stores it as its own machine path
        (remote_dir, "/diff", server.real_path("/diff")),
    ]:
        assert run_script(client_box, SETUP, base, target_base) == [0, 0, 0]
        assert boxed_write_file(client_box, f"{base}/f", b"hello world") == 11
        results = run_script(client_box, DIFFERENTIAL_CASES[op], base, target_base)
        views.append([comparable(r, target_base, stored_base) for r in results])
    local, remote = views
    assert remote == local
