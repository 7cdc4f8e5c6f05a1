"""The per-op host path avoids two costs that look free.

On CPython 3.11 the enum metaclass defines ``__getattr__``, so every
``FileType.DIR`` or ``OpenFlags.O_RDONLY`` costs about 150-180 ns, against
about 20 ns for a module global, and ``OpenFlags(x)`` or ``a | b`` between
flag members runs the enum's Python-level machinery.  A frozen
dataclass's ``__init__`` pays ``object.__setattr__`` per field: 4-5 µs
for a seven-field ``StatPayload``.  The functions below run on every
trapped call or every Chirp request, so they use the aliases each enum's
own module binds once (``inode._DIR``, ``process._READY``,
``fdtable.O_RDONLY``...) and build no frozen record through its
constructor (see DESIGN.md, "Host-time conventions").  This test reads
their source: it fails on an attribute load of a member of a guarded enum
outside a ``raise`` statement (a raise is a cold error path), on any
``OpenFlags(...)`` call, on any ``|`` with a flag member as an operand,
and on any call of a name that the function's globals bind to a frozen
dataclass.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap

import pytest

from repro.chirp import server as chirp_server
from repro.chirp.protocol import StatPayload
from repro.core.acl import Acl
from repro.core.aclfs import AclPolicy
from repro.core.pipeline import ReferenceMonitor
from repro.interpose.drivers import LocalDriver
from repro.interpose.handlers import files, metadata
from repro.interpose.supervisor import Supervisor
from repro.kernel import Errno, inode, process, vfs
from repro.kernel.fdtable import OpenFlags
from repro.kernel.machine import Machine
from repro.kernel.syscalls import SyscallExecutor
from repro.workloads import base

#: The enums whose members the hot path must not look up through the class.
GUARDED = {
    cls.__name__: cls
    for cls in (inode.FileType, process.ProcessState, process.RequestKind, OpenFlags, Errno)
}


def _methods(cls, *names):
    return [(f"{cls.__name__}.{name}", inspect.getattr_static(cls, name)) for name in names]


def _handlers(module):
    return [
        (f"{module.__name__}.{name}", fn)
        for name, fn in vars(module).items()
        if name.startswith("h_") and inspect.isfunction(fn)
    ]


HOT = [
    *_methods(
        Machine,
        "_step",
        "_handle_request",
        "_traced_syscall",
        "_run_traced_native",
        "_resume_traced_native",
        "kcall_x",
        "read_file",
        "write_file",
    ),
    *_methods(process.Process, "alive"),
    *_methods(process.SysProxy, "__getattr__"),
    *_methods(process.ProcContext, "compute"),
    *_methods(inode.Inode, "size", "is_dir", "is_file", "is_symlink", "st_mode"),
    ("inode.stat_of", inode.stat_of),
    *_methods(vfs.VFS, "_walk", "resolve"),
    *_methods(
        SyscallExecutor,
        "_fd",
        "do_open",
        "do_close",
        "_read_common",
        "_write_common",
        "do_read",
        "do_pread",
        "do_write",
        "do_pwrite",
        "do_read_bytes",
        "do_pread_bytes",
        "do_write_bytes",
        "do_pwrite_bytes",
        "do_stat",
        "do_fstat",
    ),
    *_methods(
        Supervisor,
        "on_syscall_entry",
        "on_syscall_exit",
        "_bind",
        "_finish",
        "_peek_path",
        "_abspath",
    ),
    *_handlers(files),
    ("files._deliver_read", files._deliver_read),
    *_handlers(metadata),
    *[
        (f"LocalDriver.{name}", fn)
        for name, fn in vars(LocalDriver).items()
        if inspect.isfunction(fn)
    ],
    ("chirp.server.read_file", chirp_server.read_file),
    ("chirp.server.write_file", chirp_server.write_file),
    *[
        (f"chirp.server.{name}", getattr(chirp_server, name))
        for name in (
            "c_open",
            "c_stat",
            "c_lstat",
            "c_fstat",
            "c_access",
            "c_getacl",
            "c_readdir",
        )
    ],
    *_methods(chirp_server._Connection, "_bind"),
    *_methods(Acl, "rights_for", "render"),
    *_methods(AclPolicy, "check"),
    *_methods(ReferenceMonitor, "_check_path"),
    ("workloads.base.workload_unit", base.workload_unit),
    ("workloads.base.app_body", base.app_body),
    ("workloads.base.child_body", base.child_body),
]


def _function(obj):
    """The plain function behind a method, property or static method."""
    if isinstance(obj, property):
        return obj.fget
    if isinstance(obj, staticmethod):
        return obj.__func__
    return obj


def _enum_lookup(node: ast.expr) -> str | None:
    """``Enum.MEMBER`` when ``node`` loads a member of a guarded enum
    through its class (``FileType.DIR`` or ``inode.FileType.DIR``)."""
    if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
        return None
    owner = node.value
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    if name in GUARDED and node.attr in GUARDED[name].__members__:
        return f"{name}.{node.attr}"
    return None


def _is_flag(node: ast.expr, env: dict) -> bool:
    """Whether ``node`` names an ``OpenFlags`` member: through the class,
    or through a global of the function's module bound to one."""
    if isinstance(node, ast.Name):
        return isinstance(env.get(node.id), OpenFlags)
    lookup = _enum_lookup(node)
    return lookup is not None and lookup.startswith("OpenFlags.")


def _frozen_record(node: ast.expr, env: dict) -> str | None:
    """The class's name when ``node`` names a frozen dataclass through
    the function's globals (``StatPayload`` or ``protocol.StatPayload``)."""
    if isinstance(node, ast.Name):
        obj = env.get(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        obj = getattr(env.get(node.value.id), node.attr, None)
    else:
        return None
    if (
        isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__dataclass_params__.frozen
    ):
        return obj.__name__
    return None


def violations(fn) -> list[str]:
    """Every enum lookup, ``OpenFlags(...)`` call, flag ``|`` and frozen
    dataclass construction in ``fn``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    env = fn.__globals__
    raised: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            raised.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        lookup = _enum_lookup(node)
        if lookup is not None and id(node) not in raised:
            found.append(f"line {line}: {lookup}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "OpenFlags"
        ):
            found.append(f"line {line}: OpenFlags(...)")
        elif isinstance(node, ast.Call) and (record := _frozen_record(node.func, env)):
            found.append(f"line {line}: {record}(...)")
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitOr)
            and (_is_flag(node.left, env) or _is_flag(node.right, env))
        ):
            found.append(f"line {line}: | between flag members")
    return sorted(found)


@pytest.mark.parametrize("name,obj", HOT, ids=[name for name, _ in HOT])
def test_hot_function_binds_enum_members_once(name, obj):
    """Both rules: no enum member through its class, no frozen record."""
    assert violations(_function(obj)) == []


def test_the_guard_sees_what_it_forbids():
    def planted(node, flags):
        if node.ftype is inode.FileType.DIR and node.mode is not inode._FILE:
            kind = inode.FileType  # the class itself is no member
        if flags & OpenFlags.O_CREAT:
            return OpenFlags(flags) | OpenFlags.O_TRUNC
        if flags is PLANTED_FLAG | 1:
            raise KeyError(OpenFlags.O_EXCL, kind)  # a raise is a cold path
        payload = StatPayload.from_fields({})  # a classmethod is no constructor
        return StatPayload(size=0, **payload.to_fields()), Acl(), inode.StatResult(0)

    assert violations(planted) == [
        "line 2: FileType.DIR",
        "line 4: OpenFlags.O_CREAT",
        "line 5: OpenFlags(...)",
        "line 5: OpenFlags.O_TRUNC",
        "line 5: | between flag members",
        "line 6: | between flag members",
        "line 9: StatPayload(...)",
        "line 9: StatResult(...)",
    ]


#: a module-level alias that still is an enum member, for the guard's own test
PLANTED_FLAG = OpenFlags.O_WRONLY
