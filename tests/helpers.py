"""Test utilities: world construction and syscall scripts in/out of boxes."""

from __future__ import annotations

import gc
import json
import struct
from collections import deque
from dataclasses import astuple
from typing import Any

from repro.chirp import ChirpServer
from repro.config import WorldSpec
from repro.core.box import IdentityBox
from repro.core.ops import OpSpec
from repro.core.pipeline import AuditSink, DenialCounter, Enforcement, Operation, ReadCache
from repro.core.rights import Rights
from repro.core.telemetry import Histogram
from repro.kernel.errno import Errno, KernelError, err
from repro.kernel.fdtable import OpenFlags
from repro.kernel.inode import access_allowed
from repro.kernel.localfs import DOT_NAMES, LocalFS
from repro.kernel.machine import Machine, WorldSnapshot
from repro.kernel.timing import CostModel
from repro.kernel.users import Credentials
from repro.kernel.vfs import MAX_SYMLINKS, WalkStats, split_path
from repro.net.rpc import _PREFIX, ProtocolError, _fill

__all__ = [
    "KeywordRecorder",
    "WORLD",
    "boxed_read_file",
    "boxed_write_file",
    "denial_stage",
    "pathless_op",
    "forge_frame",
    "make_machine",
    "make_server",
    "oracle_decode_message",
    "oracle_encode_message",
    "oracle_has_all",
    "oracle_normalize",
    "oracle_open_access",
    "oracle_union",
    "oracle_walk",
    "paths_related",
    "run_calls",
    "state_census",
]

#: The world every test builds unless it asks for another: the CI leg's
#: ``REPRO_*`` knobs, read once and passed on as arguments.
WORLD = WorldSpec.from_env()

#: Session-lifetime cache of warm-boot snapshots, one per distinct machine
#: configuration.  Populated lazily by :func:`make_machine` when snapshot
#: fixtures are enabled; safe because a WorldSnapshot is immutable and
#: every consumer gets its own forked Machine.
_WARM_SNAPSHOTS: dict[tuple, WorldSnapshot] = {}


def make_machine(
    *,
    costs: CostModel | None = None,
    hostname: str = "localhost",
    telemetry=None,
    fresh: bool = False,
) -> Machine:
    """The one place tests construct a Machine.

    Cold-boots a fresh world normally.  Under ``WORLD.snapshot_fixtures``
    it cold-boots each distinct configuration once per session, snapshots
    it, and hands every subsequent caller an O(size-of-diff) fork — the
    behaviour must be indistinguishable, which
    ``tests/properties/test_prop_snapshot.py`` checks.  Pass ``fresh=True``
    to force a cold boot (e.g. for tests that measure boot itself), or a
    ``telemetry`` sink, which binds to machine identity and so never
    shares a template.
    """
    if fresh or telemetry is not None or not WORLD.snapshot_fixtures:
        return Machine(costs=costs, hostname=hostname, telemetry=telemetry)
    key = (hostname, None if costs is None else astuple(costs))
    snap = _WARM_SNAPSHOTS.get(key)
    if snap is None:
        snap = Machine(costs=costs, hostname=hostname).snapshot()
        _WARM_SNAPSHOTS[key] = snap
    return Machine(snapshot=snap)


def make_server(machine, owner, *, read_cache=WORLD.read_cache, **kwargs) -> ChirpServer:
    """The one place tests construct a ChirpServer: ``read_cache`` (by
    default ``WORLD``'s) arms the fast lane with a fresh :class:`ReadCache`."""
    return ChirpServer(machine, owner, read_cache=ReadCache() if read_cache else None, **kwargs)


def run_calls(
    calls: list[tuple],
    *,
    machine: Machine,
    cred: Credentials | None = None,
    box: IdentityBox | None = None,
    cwd: str | None = None,
) -> list[Any]:
    """Run a list of ``(syscall_name, *args)`` tuples as one process.

    Returns the result of each call in order.  ``("compute", us)`` burns
    CPU.  Exactly one of ``cred`` (plain process) or ``box`` must be given.
    """
    results: list[Any] = []

    def body(proc, args):
        for name, *cargs in calls:
            if name == "compute":
                yield proc.compute(us=cargs[0])
                results.append(0)
            else:
                result = yield getattr(proc.sys, name)(*cargs)
                results.append(result)
        return 0

    if box is not None:
        box.spawn(body, cwd=cwd, comm="test-script")
    else:
        assert cred is not None, "run_calls needs cred or box"
        machine.spawn(body, cred=cred, cwd=cwd or "/", comm="test-script")
    machine.run()
    return results


def boxed_write_file(box: IdentityBox, path: str, data: bytes) -> Any:
    """Write a file through the trapped-syscall path; returns the write result."""
    outcome: list[Any] = []

    def body(proc, args):
        fd = yield proc.sys.open(
            path, OpenFlags.O_WRONLY | OpenFlags.O_CREAT | OpenFlags.O_TRUNC
        )
        if isinstance(fd, int) and fd < 0:
            outcome.append(fd)
            return 1
        addr = proc.alloc_bytes(data)
        n = yield proc.sys.write(fd, addr, len(data))
        yield proc.sys.close(fd)
        outcome.append(n)
        return 0

    box.spawn(body, comm="boxed-write")
    box.machine.run()
    return outcome[0]


def boxed_read_file(box: IdentityBox, path: str) -> Any:
    """Read a file through the trapped-syscall path.

    Returns the file bytes, or the negative errno from ``open``/``read``.
    """
    outcome: list[Any] = []

    def body(proc, args):
        fd = yield proc.sys.open(path, OpenFlags.O_RDONLY)
        if isinstance(fd, int) and fd < 0:
            outcome.append(fd)
            return 1
        out = bytearray()
        buf = proc.alloc(65536)
        while True:
            n = yield proc.sys.read(fd, buf, 65536)
            if not isinstance(n, int) or n < 0:
                outcome.append(n)
                return 1
            if n == 0:
                break
            out.extend(proc.read_buffer(buf, n))
        yield proc.sys.close(fd)
        outcome.append(bytes(out))
        return 0

    box.spawn(body, comm="boxed-read")
    box.machine.run()
    return outcome[0]


def paths_related(cached: str, mutated: str) -> bool:
    """Oracle for the read cache: could a mutation at ``mutated`` change
    what a read at ``cached`` observed?  Yes if either path contains the
    other: writing a child changes the parent directory's stat/readdir,
    and replacing a parent (rename, setacl on the governing dir) changes
    every verdict below."""
    return (
        cached == mutated
        or cached.startswith(mutated + "/")
        or mutated.startswith(cached + "/")
    )


def forge_frame(header: bytes, slots: bytes = b"", *segments: bytes) -> bytes:
    """A wire frame assembled by hand, as a hostile peer could send it:
    the two-length prefix, the header, the slot list, then the segments."""
    return struct.pack(">II", len(header), len(slots)) + header + slots + b"".join(segments)


# ---------------------------------------------------------------------- #
# reference implementations the hot path is checked against
# ---------------------------------------------------------------------- #


def oracle_open_access(flags: OpenFlags) -> tuple[OpenFlags, bool, bool]:
    """``(accmode, readable, writable)`` by enum arithmetic, the way
    ``OpenFlags`` first defined them."""
    accmode = OpenFlags(flags & 0o3)
    readable = accmode in (OpenFlags.O_RDONLY, OpenFlags.O_RDWR)
    writable = accmode in (OpenFlags.O_WRONLY, OpenFlags.O_RDWR)
    return accmode, readable, writable


def oracle_normalize(path: str) -> str:
    """Lexical normalization by a full component pass, no shortcuts."""
    stack: list[str] = []
    for component in split_path(path):
        if component == ".":
            continue
        if component == "..":
            if stack:
                stack.pop()
            continue
        stack.append(component)
    return "/" + "/".join(stack)


def oracle_walk(
    fs: LocalFS,
    path: str,
    cred: Credentials | None = None,
    *,
    follow: bool = True,
    check_traverse: bool = True,
) -> tuple:
    """Resolve an absolute ``path`` with one ``LocalFS.lookup`` per component.

    Returns ``(inode, parent, name, dir_path, stats)`` as the resolver's
    walk does, or raises the same :class:`KernelError`.
    """
    stats = WalkStats()
    current = fs.root
    current_path: list[str] = []
    components = split_path(path)
    if not components:
        return fs.root, fs.root, "", "/", stats
    i = 0
    while i < len(components):
        component = components[i]
        is_last = i == len(components) - 1
        stats.components += 1
        if not current.is_dir:
            raise err(Errno.ENOTDIR, "/" + "/".join(current_path))
        if check_traverse and cred is not None:
            if not access_allowed(current, cred.uid, cred.gid, 1):
                raise err(Errno.EACCES, "/" + "/".join(current_path))
        if component == ".":
            i += 1
            continue
        if component == "..":
            current = fs.parent_of(current)
            if current_path:
                current_path.pop()
            i += 1
            continue
        try:
            child = fs.lookup(current, component)
        except KernelError as exc:
            if exc.errno is Errno.ENOENT and is_last:
                return None, current, component, "/" + "/".join(current_path), stats
            raise
        if child.is_symlink and (follow or not is_last):
            stats.symlinks += 1
            if stats.symlinks > MAX_SYMLINKS:
                raise err(Errno.ELOOP, path)
            target = child.symlink_target
            if target.startswith("/"):
                current = fs.root
                current_path = []
                components = split_path(target) + components[i + 1 :]
                i = 0
                if not components:
                    return fs.root, fs.root, "", "/", stats
                continue
            components = components[:i] + split_path(target) + components[i + 1 :]
            continue
        if is_last:
            return child, current, component, "/" + "/".join(current_path), stats
        current = child
        if component not in DOT_NAMES:
            current_path.append(component)
        i += 1
    if current_path:
        return (
            current,
            fs.parent_of(current),
            current_path[-1],
            "/" + "/".join(current_path[:-1]),
            stats,
        )
    return current, fs.parent_of(current), "", "/", stats


def _oracle_collect(value: Any, path: list, out: list) -> None:
    """Append ``(path, payload)`` for every bytes value under ``value``."""
    if isinstance(value, bytes):
        out.append((path, value))
    elif isinstance(value, dict):
        for key in sorted(value):
            # a non-string key is named as the header spells it (1 -> "1")
            step = key if isinstance(key, str) else json.dumps(key)
            _oracle_collect(value[key], [*path, step], out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _oracle_collect(item, [*path, index], out)


def oracle_encode_message(message: dict[str, Any]) -> bytes:
    """The codec's encoder through ``json.dumps``, as first written.

    One ``json.dumps`` pass writes the header; its ``default`` hook turns
    each bytes value into null.  Only when the hook fired does a walk
    find the payloads' paths.
    """
    payloads = 0

    def nullify(value: Any) -> None:
        nonlocal payloads
        if isinstance(value, bytes):
            payloads += 1
            return None
        raise ProtocolError(f"cannot encode {type(value).__name__} on the wire")

    try:
        header = json.dumps(
            message, separators=(",", ":"), sort_keys=True, default=nullify
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message: {exc}") from exc
    if not payloads:
        return _PREFIX.pack(len(header), 0) + header
    found: list[tuple[list, bytes]] = []
    _oracle_collect(message, [], found)
    slots = json.dumps(
        [[path, len(data)] for path, data in found], separators=(",", ":")
    ).encode("utf-8")
    return b"".join(
        [_PREFIX.pack(len(header), len(slots)), header, slots]
        + [data for _, data in found]
    )


def oracle_decode_message(frame: bytes) -> dict[str, Any]:
    """The codec's decoder through ``json.loads``, as first written."""
    if len(frame) < _PREFIX.size:
        raise ProtocolError(f"frame of {len(frame)} bytes has no prefix")
    header_len, slots_len = _PREFIX.unpack_from(frame)
    header_end = _PREFIX.size + header_len
    slots_end = header_end + slots_len
    if slots_end > len(frame):
        raise ProtocolError(f"prefix declares {slots_end} bytes, frame has {len(frame)}")
    try:
        message = json.loads(frame[_PREFIX.size : header_end].decode("utf-8"))
        slots = json.loads(frame[header_end:slots_end].decode("utf-8")) if slots_len else ()
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame is not a message dict: {type(message).__name__}")
    if slots_len and not (isinstance(slots, list) and slots):
        raise ProtocolError("slot section is not a non-empty list")
    offset = slots_end
    for slot in slots:
        path, length = slot if isinstance(slot, list) and len(slot) == 2 else (None, None)
        if not isinstance(path, list) or type(length) is not int or length < 0:
            raise ProtocolError(f"malformed slot {slot!r}")
        _fill(message, path, frame[offset : offset + length])
        offset += length
    if offset != len(frame):  # a truncated segment, or trailing bytes
        raise ProtocolError(
            f"slots declare {offset - slots_end} payload bytes, frame has {len(frame) - slots_end}"
        )
    return message


def oracle_union(a: Rights, b: Rights) -> Rights:
    """``Rights.union`` through the validating constructor."""
    if a.reserve is None and b.reserve is None:
        reserve = None
    else:
        reserve = (a.reserve or frozenset()) | (b.reserve or frozenset())
    return Rights(flags=a.flags | b.flags, reserve=reserve)


def oracle_has_all(rights: Rights, letters: str) -> bool:
    """``Rights.has_all`` one letter at a time."""
    return all(rights.has(letter) for letter in letters)


class _PathlessPolicy:
    """Stands in for an ``AclPolicy`` under ops with no path argument, of
    which the reference monitor reads only how many symlinks it walked."""

    symlinks_walked = 0


def denial_stage(telemetry) -> Enforcement:
    """The composed standard stages, counting denials into ``telemetry``,
    for ops built by :func:`pathless_op`: what an op's outcome meets
    between tracing and its handler."""
    return Enforcement(_PathlessPolicy(), AuditSink(), DenialCounter(telemetry))


def pathless_op(surface: str, name: str, identity: str | None, handler) -> Operation:
    """An op with no path argument whose handler is ``handler``."""
    return Operation(name, surface, {}, identity, "/", [], {}, OpSpec(name, handler))


class KeywordRecorder:
    """The keyword-label registry the bound handles replaced.

    Every record builds its sorted ``(label, str(value))`` tuple and looks
    the series up by ``(name, labels)``, and the pipeline's latency, op and
    denial series carry the acting identity as a label, exactly as the
    tracing interceptor recorded them before identity left metric labels
    (denials also carry the errno, as the pipeline's denial counter
    labels them).
    """

    DENIALS = frozenset({"EACCES", "EPERM"})

    def __init__(self) -> None:
        self.counters: dict[tuple[str, tuple], int] = {}
        self.histograms: dict[tuple[str, tuple], Histogram] = {}

    @staticmethod
    def key(labels: dict[str, Any]) -> tuple:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter_inc(self, name: str, value: int = 1, **labels: Any) -> None:
        key = (name, self.key(labels))
        self.counters[key] = self.counters.get(key, 0) + value

    def observe(self, name: str, value_ns: int, **labels: Any) -> None:
        key = (name, self.key(labels))
        self.histograms.setdefault(key, Histogram()).observe(value_ns)

    def record_op(
        self, surface: str, op: str, status: str, identity: str, latency_ns: int
    ) -> None:
        labels = {"surface": surface, "op": op, "identity": identity}
        self.observe("pipeline.latency_ns", latency_ns, **labels)
        self.counter_inc("pipeline.ops", **labels)
        self.counter_inc("pipeline.outcomes", surface=surface, op=op, status=status)
        if status in self.DENIALS:
            self.counter_inc("pipeline.denials", errno=status, **labels)

    def counters_without(self, name: str, label: str) -> dict[tuple, int]:
        """``name``'s counters summed over every value of ``label``."""
        out: dict[tuple, int] = {}
        for (n, key), value in self.counters.items():
            if n == name:
                kept = tuple(pair for pair in key if pair[0] != label)
                out[kept] = out.get(kept, 0) + value
        return out

    def histograms_without(self, name: str, label: str) -> dict[tuple, Histogram]:
        """``name``'s histograms merged over every value of ``label``."""
        out: dict[tuple, Histogram] = {}
        for (n, key), hist in self.histograms.items():
            if n == name:
                kept = tuple(pair for pair in key if pair[0] != label)
                out.setdefault(kept, Histogram()).merge(hist)
        return out


#: Containers whose size :func:`state_census` counts (immutable ones cannot
#: grow, so tuples, strings and bytes are walked or skipped, never counted).
_STORES = (dict, list, set, deque, bytearray)


def state_census(*roots: Any) -> dict[str, int]:
    """How much every store reachable from ``roots`` holds, by owner.

    Walks the object graph with :func:`gc.get_referents`, entering only
    this project's objects and the built-in containers between them.  A
    container reached through an object's attribute is charged to
    ``"<class>.<attribute>"`` (``"LocalFS._orphans"``); containers nested
    inside it, and inside its anonymous elements, are charged to the same
    key.  Each key sums ``len()`` over every container charged to it, so
    a store that grows with the work done shows up as a growing number,
    whichever instance holds it.  Each object is visited once.
    """
    census: dict[str, int] = {}
    seen: set[int] = set()
    todo: list[tuple[Any, str]] = [(root, type(root).__qualname__) for root in roots]
    while todo:
        obj, owner = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _STORES):
            census[owner] = census.get(owner, 0) + len(obj)
            if isinstance(obj, bytearray):
                continue
            todo.extend((child, owner) for child in gc.get_referents(obj))
        elif isinstance(obj, (tuple, frozenset)):
            todo.extend((child, owner) for child in obj)
        elif type(obj).__module__.startswith("repro.") and not isinstance(obj, type):
            cls = type(obj).__qualname__
            for name, value in _attributes(obj):
                todo.append((value, f"{cls}.{name}"))
    return census


def _attributes(obj: Any) -> list[tuple[str, Any]]:
    """An object's instance attributes, from ``__dict__`` and ``__slots__``."""
    found = list(getattr(obj, "__dict__", {}).items())
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name != "__dict__" and hasattr(obj, name):
                found.append((name, getattr(obj, name)))
    return found
