"""The Chirp server: file ops, ACL enforcement, reserve rights, exec."""

import pytest

from repro.chirp import ChirpError
from repro.core.acl import ACL_FILE_NAME
from repro.kernel import Errno, OpenFlags
from repro.net.rpc import decode_message, encode_message
from tests.chirp.conftest import (
    FRED_DN,
    HEIDI_DN,
    connect,
    requires_perfect_network,
)
from repro.chirp.auth import HostnameAuthenticator


# -- basic file I/O ------------------------------------------------------- #


def test_put_get_roundtrip(fred):
    data = b"x" * 200_000  # multiple chunks
    assert fred.put(data, "/work/big.dat") if False else True
    fred.mkdir("/work")
    fred.put(data, "/work/big.dat")
    assert fred.get("/work/big.dat") == data


@requires_perfect_network  # raw descriptors die with their connection
def test_open_pread_pwrite(fred):
    fred.mkdir("/w")
    fd = fred.open("/w/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT)
    assert fred.pwrite(fd, b"hello world", 0) == 11
    assert fred.pread(fd, 5, 6) == b"world"
    assert fred.fstat(fd).size == 11
    fred.ftruncate(fd, 5)
    assert fred.fstat(fd).size == 5
    fred.close_fd(fd)


def test_stat_and_readdir(fred):
    fred.mkdir("/w")
    fred.put(b"abc", "/w/f")
    st = fred.stat("/w/f")
    assert st.is_file and st.size == 3
    assert fred.stat("/w").is_dir
    assert fred.readdir("/w") == ["f"]


def test_acl_file_hidden_and_protected(fred):
    fred.mkdir("/w")
    assert ACL_FILE_NAME not in fred.readdir("/w")
    with pytest.raises(ChirpError):
        fred.put(b"Evil rwlxa", f"/w/{ACL_FILE_NAME}")
    with pytest.raises(ChirpError):
        fred.unlink(f"/w/{ACL_FILE_NAME}")


def test_rename_unlink(fred):
    fred.mkdir("/w")
    fred.put(b"1", "/w/a")
    fred.rename("/w/a", "/w/b")
    assert fred.get("/w/b") == b"1"
    fred.unlink("/w/b")
    with pytest.raises(ChirpError):
        fred.stat("/w/b")


def test_rename_directory_into_its_own_subtree_is_einval(fred):
    fred.mkdir("/w")
    fred.mkdir("/w/x")
    fred.mkdir("/w/x/y")
    with pytest.raises(ChirpError) as info:
        fred.rename("/w/x", "/w/x/y/z")
    assert info.value.errno is Errno.EINVAL
    assert fred.stat("/w/x/y").is_dir


def test_symlink_readlink(fred):
    fred.mkdir("/w")
    fred.put(b"t", "/w/target")
    fred.symlink("/w/target", "/w/link")
    assert fred.lstat("/w/link").is_symlink
    assert fred.get("/w/link") == b"t"


def test_relative_symlink_resolves_beside_the_link(fred, server):
    fred.mkdir("/w")
    fred.mkdir("/w/d")
    fred.put(b"beside the link", "/w/d/f")
    fred.put(b"one level up", "/w/f")
    fred.symlink("f", "/w/d/l")
    assert fred.get("/w/d/l") == b"beside the link"
    assert fred.readlink("/w/d/l") == "/w/d/f"
    fred.mkdir("/w/d/sub")
    fred.symlink("../f", "/w/d/sub/up")
    assert fred.get("/w/d/sub/up") == b"beside the link"
    assert fred.readlink("/w/d/sub/up") == "/w/d/f"


def test_symlink_target_cannot_climb_out_of_the_export(fred, server):
    # the machine's real /etc/passwd exists; a ".." chain in a relative
    # target stops at the export root, where no etc/ exists
    fred.mkdir("/d")
    fred.symlink("../../../../../../etc/passwd", "/d/esc")
    assert fred.readlink("/d/esc") == "/etc/passwd"
    with pytest.raises(ChirpError) as info:
        fred.get("/d/esc")
    assert info.value.errno is Errno.ENOENT
    stored = server.fs.readlink(server.real_path("/d/esc"))
    assert stored == server.export_root + "/etc/passwd"


def test_no_reply_names_the_export_root(fred, server):
    fred.mkdir("/d")
    fred.put(b"t", "/d/f")
    fred.symlink("/d/f", "/d/absolute")
    fred.symlink("f", "/d/relative")
    fred.symlink("..", "/d/parent")
    replies = [
        fred.readlink("/d/absolute"),
        fred.readlink("/d/relative"),
        fred.readlink("/d/parent"),
        fred.lstat("/d/absolute"),
        fred.readdir("/d"),
        fred.getacl("/d"),
    ]
    assert replies[:3] == ["/d/f", "/d/f", "/"]
    assert all(server.export_root not in repr(reply) for reply in replies)


def test_bad_fd_is_ebadf(fred):
    with pytest.raises(ChirpError) as info:
        fred.pread(123, 1, 0)
    assert info.value.errno is Errno.EBADF


def test_path_escape_attempts_stay_jailed(fred, server):
    # the machine's real /etc/passwd exists, but the protocol path is
    # normalized back inside the export root, where no etc/ exists
    with pytest.raises(ChirpError) as info:
        fred.stat("/w/../../../../etc/passwd")
    assert info.value.errno is Errno.ENOENT
    # dot-dot within the export still works normally
    fred.mkdir("/w")
    fred.put(b"inside", "/w/../w/f")
    assert fred.get("/w/f") == b"inside"


# -- ACL semantics over the wire ---------------------------------------------- #


def test_reserve_right_mkdir(fred):
    fred.mkdir("/work")
    acl = fred.getacl("/work")
    assert acl.strip() == f"globus:{FRED_DN} rwlxa"


def test_visitor_without_rights_denied(heidi, fred):
    fred.mkdir("/work")
    with pytest.raises(ChirpError) as info:
        heidi.readdir("/work")
    assert info.value.errno is Errno.EACCES
    with pytest.raises(ChirpError):
        heidi.mkdir("/heidi-dir")  # NotreDame has only rl at the root


def test_grant_and_revoke_by_grid_identity(fred, heidi):
    fred.mkdir("/work")
    fred.put(b"shared", "/work/data")
    fred.setacl("/work", f"globus:{HEIDI_DN}", "rl")
    assert heidi.get("/work/data") == b"shared"
    fred.setacl("/work", f"globus:{HEIDI_DN}", "-")
    with pytest.raises(ChirpError):
        heidi.get("/work/data")


def test_setacl_never_leaves_a_stale_compiled_acl(fred, heidi, server):
    heidi_id = f"globus:{HEIDI_DN}"
    fred.mkdir("/work")
    fred.put(b"shared", "/work/data")
    with pytest.raises(ChirpError):
        heidi.get("/work/data")  # compiles the ACL the policy now caches
    work_dir = server.real_path("/work")
    # the cache is keyed by the directory's inode, not by its name
    held = server.policy._cache[server.machine.vfs.resolve(work_dir).inode.ino]
    assert held.rights_for(heidi_id).is_empty
    # setacl edits that very instance before writing it out
    fred.setacl("/work", heidi_id, "rl")
    assert str(held.rights_for(heidi_id)) == "rl"
    assert heidi.get("/work/data") == b"shared"
    assert str(server.policy.acl_of(work_dir).rights_for(heidi_id)) == "rl"
    fred.setacl("/work", heidi_id, "-")
    with pytest.raises(ChirpError):
        heidi.get("/work/data")
    assert server.policy.acl_of(work_dir).rights_for(heidi_id).is_empty


def test_revocation_through_a_symlinked_path_takes_effect(fred, heidi):
    # the ACL belongs to the directory, not to the name it is reached by:
    # a revocation written through an alias must bind every other name
    heidi_id = f"globus:{HEIDI_DN}"
    fred.mkdir("/w")
    fred.mkdir("/w/real")
    fred.mkdir("/w/real/d")
    fred.setacl("/w/real/d", heidi_id, "rl")
    fred.put(b"shared", "/w/real/d/f")
    fred.symlink("/w/real", "/w/s")
    assert heidi.get("/w/real/d/f") == b"shared"
    fred.setacl("/w/s/d", heidi_id, "-")
    assert heidi_id not in fred.getacl("/w/real/d")
    assert heidi_id not in fred.getacl("/w/s/d")
    for path in ("/w/real/d/f", "/w/s/d/f"):
        with pytest.raises(ChirpError) as info:
            heidi.get(path)
        assert info.value.errno is Errno.EACCES


def test_setacl_requires_admin_right(fred, heidi):
    fred.mkdir("/work")
    fred.setacl("/work", f"globus:{HEIDI_DN}", "rl")  # no 'a' for heidi
    with pytest.raises(ChirpError) as info:
        heidi.setacl("/work", f"globus:{HEIDI_DN}", "rwlxa")
    assert info.value.errno is Errno.EACCES


def test_aclcheck_probe(fred, heidi):
    fred.mkdir("/work")
    assert fred.aclcheck("/work", "rwlxa")
    assert not heidi.aclcheck("/work", "r")


def test_access_reflects_rights(fred, heidi):
    fred.mkdir("/work")
    assert fred.access("/work", "rwl")
    assert not heidi.access("/work", "l")


def test_rmdir_own_directory_via_own_acl(fred):
    fred.mkdir("/work")
    fred.rmdir("/work")
    with pytest.raises(ChirpError):
        fred.stat("/work")


def test_rmdir_foreign_directory_denied(fred, heidi):
    fred.mkdir("/work")
    with pytest.raises(ChirpError):
        heidi.rmdir("/work")


def test_write_inside_a_directory_is_no_right_to_remove_it(fred, heidi):
    # DESIGN §6 finding 5: heidi holds rwl inside /work but only rl at the
    # root; removing a directory by its own ACL takes the reserve right in
    # the parent, which fred has and heidi does not
    fred.mkdir("/work")
    fred.setacl("/work", f"globus:{HEIDI_DN}", "rwl")
    with pytest.raises(ChirpError) as info:
        heidi.rmdir("/work")
    assert info.value.errno is Errno.EACCES
    assert fred.stat("/work").is_dir
    fred.rmdir("/work")


def test_mkdir_inherits_when_writer(fred, heidi):
    fred.mkdir("/work")
    fred.setacl("/work", f"globus:{HEIDI_DN}", "rl")
    fred.mkdir("/work/sub")  # fred holds w in /work: inherit
    sub_acl = fred.getacl("/work/sub")
    assert f"globus:{HEIDI_DN} rl" in sub_acl


def test_wildcard_acl_on_wire(fred, heidi):
    fred.mkdir("/work")
    fred.put(b"d", "/work/f")
    fred.setacl("/work", "globus:/O=NotreDame/*", "rl")
    assert heidi.get("/work/f") == b"d"


def test_hard_link_rules_apply_remotely(fred, heidi):
    fred.mkdir("/work")
    fred.put(b"x", "/work/f")
    fred.link("/work/f", "/work/f2")
    assert fred.get("/work/f2") == b"x"
    heidi_denied = False
    try:
        heidi.link("/work/f", "/work/f3")
    except ChirpError:
        heidi_denied = True
    assert heidi_denied


# -- remote exec in an identity box ------------------------------------------- #


def register_writer(machine, marker=b"job output\n"):
    def job(proc, args):
        fd = yield proc.sys.open("result.dat", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        addr = proc.alloc_bytes(marker)
        yield proc.sys.write(fd, addr, len(marker))
        yield proc.sys.close(fd)
        return 0

    machine.register_program("job", job)


def test_exec_runs_in_identity_box(fred, server):
    register_writer(server.machine)
    fred.mkdir("/work")
    fred.put(b"#!repro:job\n", "/work/job.exe", mode=0o755)
    status = fred.exec("/work/job.exe", cwd="/work")
    assert status == 0
    assert fred.get("/work/result.dat") == b"job output\n"
    assert server.stats.execs == 1


def test_exec_identity_is_the_principal(fred, server):
    def whoami_job(proc, args):
        name = yield proc.sys.get_user_name()
        fd = yield proc.sys.open("who.txt", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        addr = proc.alloc_bytes(name.encode())
        yield proc.sys.write(fd, addr, len(name))
        yield proc.sys.close(fd)
        return 0

    server.machine.register_program("whoami", whoami_job)
    fred.mkdir("/work")
    fred.put(b"#!repro:whoami\n", "/work/w.exe", mode=0o755)
    fred.exec("/work/w.exe", cwd="/work")
    assert fred.get("/work/who.txt") == f"globus:{FRED_DN}".encode()


def test_exec_requires_x_right(fred, heidi, server):
    register_writer(server.machine)
    fred.mkdir("/work")
    fred.put(b"#!repro:job\n", "/work/job.exe", mode=0o755)
    fred.setacl("/work", f"globus:{HEIDI_DN}", "rl")  # read, no execute
    with pytest.raises(ChirpError) as info:
        heidi.exec("/work/job.exe", cwd="/work")
    assert info.value.errno is Errno.EACCES


def test_exec_job_confined_by_acls(fred, heidi, server):
    """A job exec'd by Heidi cannot write into Fred's directory."""

    def hostile(proc, args):
        result = yield proc.sys.open(
            "trespass", OpenFlags.O_WRONLY | OpenFlags.O_CREAT
        )
        return 0 if (isinstance(result, int) and result < 0) else 1

    server.machine.register_program("hostile", hostile)
    fred.mkdir("/work")
    fred.setacl("/work", f"globus:{HEIDI_DN}", "rlx")  # can run, not write
    fred.put(b"#!repro:hostile\n", "/work/h.exe", mode=0o755)
    status = heidi.exec("/work/h.exe", cwd="/work")
    assert status == 0  # 0 = the hostile open was denied
    assert "trespass" not in fred.readdir("/work")


def test_rx_rights_mean_run_existing_programs_only(fred, server, cluster):
    """The paper's example: rx lets you run what's there, not stage new code."""
    register_writer(server.machine)
    fred.mkdir("/work")
    fred.put(b"#!repro:job\n", "/work/job.exe", mode=0o755)
    fred.setacl("/work", "hostname:*.nowhere.edu", "rlx")
    visitor = connect(cluster)
    visitor.authenticate([HostnameAuthenticator()])
    assert visitor.exec("/work/job.exe", cwd="/work") == 0
    with pytest.raises(ChirpError):
        visitor.put(b"#!repro:job\n", "/work/mine.exe")


# -- connection hygiene ---------------------------------------------------- #


def test_connection_close_releases_fds(fred, server):
    fred.mkdir("/w")
    fred.open("/w/f", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
    open_before = len(server.owner_task.fdtable)
    fred.close()
    assert len(server.owner_task.fdtable) < open_before


@requires_perfect_network  # raw descriptors die with their connection
def test_server_serves_the_world_a_restore_rewinds_to(fred, server):
    fred.mkdir("/t")
    fred.put(b"before", "/t/f")
    snap = server.machine.snapshot()
    fred.put(b"after the snapshot", "/t/f")
    fred.put(b"gone", "/t/g")
    stale = fred.open("/t/f", OpenFlags.O_RDONLY)
    server.machine.restore(snap)
    # the rewound world: /t/g never existed and /t/f holds its old bytes
    assert fred.readdir("/t") == ["f"]
    assert fred.get("/t/f") == b"before"
    fd = fred.open("/t/f", OpenFlags.O_RDONLY)
    assert fred.pread(fd, 64, 0) == b"before"
    # a descriptor of the old world names nothing here, even where its
    # number is taken by a descriptor of this one
    with pytest.raises(ChirpError) as info:
        fred.pread(stale, 64, 0)
    assert info.value.errno is Errno.EBADF
    with pytest.raises(ChirpError) as info:
        fred.close_fd(stale)
    assert info.value.errno is Errno.EBADF
    assert fred.put(b"new future", "/t/g") == 10
    assert fred.get("/t/g") == b"new future"
    assert fred.pread(fd, 64, 0) == b"before"
    fred.close_fd(fd)


def test_malformed_op_is_error(cluster, server, fred):
    # straight to the server's side of the connection: a raw exchange
    # has no retry layer to ride out an injected network fault
    reply = fred.connection.handler.handle(b"garbage{{{")
    from repro.net.rpc import decode_message

    decoded = decode_message(reply)
    assert decoded["ok"] is False


#: stands for a descriptor the test opens on ``/None/f`` first
OPEN_FD = "<open fd>"

NON_STRING_FIELDS = [
    {"op": "stat", "path": None},
    {"op": "getfile", "path": 7},
    {"op": "rename", "oldpath": "/None/f", "newpath": None},
    {"op": "exec", "path": "/None/f", "cwd": None},
    {"op": "symlink", "target": None, "linkpath": "/None/l"},
    {"op": "setacl", "path": "/None", "subject": None, "rights": "rl"},
    {"op": "setacl", "path": "/None", "subject": "globus:x", "rights": None},
    {"op": "access", "path": "/None/f", "letters": None},
    {"op": "aclcheck", "path": "/None", "letters": ["r"]},
    # numeric, bytes and list fields are checked against their types,
    # never coerced: a bool is no int, a float is no int, a str no bytes
    {"op": "open", "path": "/None/f", "flags": "0"},
    {"op": "pread", "fd": OPEN_FD, "length": True, "offset": 0.9},
    {"op": "pread", "fd": "3", "length": 4, "offset": 0},
    {"op": "pwrite", "fd": OPEN_FD, "data": "text", "offset": 0},
    {"op": "putfile", "path": "/None/g", "data": b"x", "mode": "493"},
    {"op": "mkdir", "path": "/None/d", "mode": 493.7},
    {"op": "truncate", "path": "/None/f", "length": "2"},
    {"op": "exec", "path": "/None/f", "cwd": "/None", "args": "abc"},
    {"op": "exec", "path": "/None/f", "cwd": "/None", "args": [None, 1]},
    {"op": "auth", "method": 7, "payload": {}},
]


@pytest.mark.parametrize(
    "message", NON_STRING_FIELDS, ids=[f"{m['op']}-{i}" for i, m in enumerate(NON_STRING_FIELDS)]
)
def test_a_non_string_name_field_is_einval(fred, message):
    """A path, target, subject, rights or letters field that is not a
    string is refused, never read as its ``str()``: a ``null`` path would
    name ``/None`` and a ``null`` subject would add an ACL line for
    "None".  So is a number, payload or argument list of the wrong type,
    never read as its ``int()`` or ``str()``."""
    fred.mkdir("/None")  # the object ``str(None)`` names
    fred.put(b"decoy", "/None/f")
    acl = fred.getacl("/None")
    fd = fred.open("/None/f", OpenFlags.O_RDWR)
    message = {k: fd if v == OPEN_FD else v for k, v in message.items()}
    # straight to the server's side of the connection, as a peer that
    # does not go through the client library would send it
    reply = decode_message(fred.connection.handler.handle(encode_message(message)))
    assert reply["ok"] is False and reply["errno"] == int(Errno.EINVAL), reply
    (slot,) = fred.batch([message])
    assert slot["ok"] is False and slot["errno"] == int(Errno.EINVAL), slot
    assert fred.getacl("/None") == acl
    assert fred.readdir("/None") == ["f"]
    assert fred.get("/None/f") == b"decoy"


@requires_perfect_network  # asserts exact op/connection counters
def test_stats_accumulate(fred, server):
    fred.mkdir("/w")
    fred.put(b"123", "/w/f")
    fred.get("/w/f")
    assert server.stats.ops > 3
    assert server.stats.bytes_written == 3
    assert server.stats.bytes_read == 3
    assert server.stats.connections == 1
