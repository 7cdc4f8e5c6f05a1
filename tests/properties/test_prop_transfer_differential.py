"""Differential property test: whole-file transfers against descriptors.

``getfile`` and ``putfile`` are one pipeline operation each, with their
own rights spec; the descriptor ops they replace (``open``, ``pread`` or
``pwrite`` to EOF, ``close``) are checked as ``open`` is.  Hypothesis
drives the same sequence of transfers through both wires, on two
identically built servers: a small tree with per-directory ACLs, three
principals holding different rights (list-only and write-only grants
among them), the ``.__acl`` file, directories, missing paths, a
read-only file, a symlink into a private directory and a file larger
than one chunk.  Every step must give the same bytes or the
same errno, and the two exports must end byte-identical: the same files,
bytes, modes and ACL files.
"""

from hypothesis import given, settings, strategies as st

from repro.chirp import CHUNK, ChirpClient, ChirpError, HostnameAuthenticator
from repro.core import Acl, Rights
from repro.kernel.fdtable import OpenFlags
from repro.net import Cluster
from tests.helpers import make_server

SERVER = "srv.nowhere.edu"
ADMIN = "alpha.nowhere.edu"  # rwlax everywhere it is named
#: three principals: the admin, a writer in /pub, and a reader who holds
#: nothing at the root
HOSTS = (ADMIN, "beta.nowhere.edu", "gamma.elsewhere.org")
BIG = bytes(i % 251 for i in range(CHUNK + 99))

PATHS = (
    "/pub/f",
    "/pub/big",
    "/pub/ro",
    "/pub/new",
    "/pub/sub",
    "/pub/sub/new",
    "/pub/.__acl",
    "/pub/link",
    "/pub/link/x",
    "/priv/s",
    "/priv/new",
    "/drop/f",
    "/top",
    "/missing/x",
    "/pub",
    "/",
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.sampled_from(HOSTS), st.sampled_from(PATHS)),
        st.tuples(
            st.just("put"),
            st.sampled_from(HOSTS),
            st.sampled_from(PATHS),
            st.sampled_from((b"", b"new bytes\n", BIG)),
            st.sampled_from((0o644, 0o600, 0o755)),
        ),
    ),
    min_size=1,
    max_size=6,
)


def build_world():
    cluster = Cluster()
    for host in (SERVER, *HOSTS):
        cluster.add_machine(host)
    machine = cluster.machine(SERVER)
    server = make_server(machine, machine.add_user("owner"), network=cluster.network)
    root = Acl()
    root.set_entry(f"hostname:{ADMIN}", Rights.parse("rwlax"))
    root.set_entry("hostname:beta.nowhere.edu", Rights.parse("rl"))
    server.set_root_acl(root)
    server.serve()
    clients = {}
    for host in HOSTS:
        clients[host] = ChirpClient.connect(cluster.network, host, SERVER)
        clients[host].authenticate([HostnameAuthenticator()])
    admin = clients[ADMIN]
    admin.mkdir("/pub")
    admin.setacl("/pub", "hostname:beta.nowhere.edu", "rwl")
    admin.setacl("/pub", "hostname:gamma.elsewhere.org", "rl")
    admin.put(b"hello\n", "/pub/f")
    admin.put(BIG, "/pub/big")
    admin.put(b"read only\n", "/pub/ro", mode=0o444)
    admin.mkdir("/pub/sub")
    admin.mkdir("/priv")
    admin.setacl("/priv", "hostname:beta.nowhere.edu", "-")
    admin.setacl("/priv", "hostname:gamma.elsewhere.org", "l")
    admin.put(b"secret\n", "/priv/s")
    admin.mkdir("/drop")  # a drop box: gamma may write but not read
    admin.setacl("/drop", "hostname:gamma.elsewhere.org", "w")
    admin.put(b"dropped\n", "/drop/f")
    admin.symlink("/priv", "/pub/link")
    return server, clients


def outcome(fn):
    try:
        return ("ok", fn())
    except ChirpError as exc:
        return ("err", exc.errno.name)


def get_by_descriptor(client, path):
    fd = client.open(path, OpenFlags.O_RDONLY)
    out = bytearray()
    try:
        while chunk := client.pread(fd, CHUNK, len(out)):
            out.extend(chunk)
        return bytes(out)
    finally:
        client.close_fd(fd)


def put_by_descriptor(client, data, path, mode):
    flags = OpenFlags.O_WRONLY | OpenFlags.O_CREAT | OpenFlags.O_TRUNC
    fd = client.open(path, flags, mode)
    try:
        return sum(
            client.pwrite(fd, data[off : off + CHUNK], off)
            for off in range(0, len(data), CHUNK)
        )
    finally:
        client.close_fd(fd)


def run(world, script, *, whole_file):
    server, clients = world
    results = []
    for step in script:
        kind, host, path = step[:3]
        client = clients[host]
        if kind == "get":
            fn = (lambda: client.get(path)) if whole_file else (
                lambda: get_by_descriptor(client, path)
            )
        else:
            data, mode = step[3:]
            fn = (lambda: client.put(data, path, mode)) if whole_file else (
                lambda: put_by_descriptor(client, data, path, mode)
            )
        results.append(outcome(fn))
    return results, server.export_manifest()


@settings(max_examples=60, deadline=None)
@given(script=steps)
def test_whole_file_ops_match_the_descriptor_ops(script):
    whole = run(build_world(), script, whole_file=True)
    by_fd = run(build_world(), script, whole_file=False)
    assert whole == by_fd


def test_the_tree_reaches_every_outcome_class():
    # the fixture is only useful if it spans grants, denials and kernel
    # errors on both ops
    world = build_world()
    gamma = "gamma.elsewhere.org"
    results, _ = run(
        world,
        [
            ("get", ADMIN, "/pub/big"),
            ("get", gamma, "/priv/s"),
            ("get", ADMIN, "/pub/.__acl"),
            ("get", ADMIN, "/pub/sub"),
            ("get", ADMIN, "/missing/x"),
            ("put", "beta.nowhere.edu", "/pub/new", b"x", 0o600),
            ("put", gamma, "/pub/f", b"x", 0o644),
            ("put", ADMIN, "/pub/ro", b"x", 0o644),
            ("put", "beta.nowhere.edu", "/pub/link/x", b"x", 0o644),
        ],
        whole_file=True,
    )
    assert results == [
        ("ok", BIG),
        ("err", "EACCES"),
        ("err", "EACCES"),
        ("err", "EISDIR"),
        ("err", "ENOENT"),
        ("ok", 1),
        ("err", "EACCES"),
        ("err", "EACCES"),
        ("err", "EACCES"),
    ]
