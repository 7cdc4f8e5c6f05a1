"""The per-op host path avoids costs that look free.

On CPython 3.11 the enum metaclass defines ``__getattr__``, so every
``FileType.DIR`` or ``OpenFlags.O_RDONLY`` costs about 150-180 ns, against
about 20 ns for a module global, and ``OpenFlags(x)`` or ``a | b`` between
flag members runs the enum's Python-level machinery.  A frozen
dataclass's ``__init__`` pays ``object.__setattr__`` per field: 4-5 µs
for a seven-field ``StatPayload``.  A ``functools.partial``, a lambda or a
nested function is an allocation per call.  The functions below run on
every trapped call or every Chirp request, so they use the aliases each
enum's own module binds once (``inode._DIR``, ``process._READY``,
``fdtable.O_RDONLY``...), build no frozen record through its constructor
and make no callable (see DESIGN.md, "Host-time conventions").  This test
reads their source: it fails on an attribute load of a member of a
guarded enum outside a ``raise`` statement (a raise is a cold error
path), on any ``OpenFlags(...)`` call, on any ``|`` with a flag member as
an operand, on any call of a name that the function's globals bind to a
frozen dataclass, and on any ``partial(...)``, ``lambda`` or nested
``def``.

The objects those functions work on keep one attribute layout: an
attribute first set after ``__init__`` costs every later read of the
instance's attributes (on CPython 3.11 one such attribute on ``Machine``
cost ``boxed_make`` about 8%).  For each hot class, every attribute a
method stores on ``self`` is set by an ``__init__`` (or a dataclass's
``__post_init__``) of the class or its bases, or is a dataclass field.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import textwrap

import pytest

from repro.chirp import server as chirp_server
from repro.chirp.protocol import StatPayload
from repro.core.acl import Acl
from repro.core.aclfs import AclPolicy
from repro.core.pipeline import Enforcement, Pipeline, ReadCache
from repro.interpose.drivers import LocalDriver
from repro.interpose.handlers import files, metadata
from repro.interpose.supervisor import Supervisor
from repro.kernel import Errno, inode, process, vfs
from repro.kernel.fdtable import OpenFlags
from repro.kernel.localfs import LocalFS
from repro.kernel.machine import Machine
from repro.kernel.ptrace import TraceSession
from repro.kernel.syscalls import SyscallExecutor
from repro.net.faults import FaultPlan
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
    ),
    *_handlers(files),
    ("files._deliver_read", files._deliver_read),
    ("files._complete_channel_write", files._complete_channel_write),
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
    *_methods(Pipeline, "run"),
    *_methods(Enforcement, "run", "_admitted", "_checked", "_check_path"),
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


def _is_partial(node: ast.expr, env: dict) -> bool:
    """Whether ``node`` names ``functools.partial`` through the function's
    globals (``partial`` or ``functools.partial``)."""
    if isinstance(node, ast.Name):
        return env.get(node.id) is functools.partial
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and getattr(env.get(node.value.id), node.attr, None) is functools.partial
    )


def violations(fn, *, builder: bool = False) -> list[str]:
    """Every enum lookup, ``OpenFlags(...)`` call, flag ``|``, frozen
    dataclass construction, ``partial(...)``, lambda and nested ``def`` in
    ``fn`` (a ``builder`` may hold ``def``s: see :data:`BUILDERS`)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    env = fn.__globals__
    raised: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            raised.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree.body[0]):
        line = getattr(node, "lineno", 0)
        lookup = _enum_lookup(node)
        if isinstance(node, ast.Lambda):
            found.append(f"line {line}: lambda")
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not tree.body[0]
            and not builder
        ):
            found.append(f"line {line}: def {node.name}")
        elif isinstance(node, ast.Call) and _is_partial(node.func, env):
            found.append(f"line {line}: partial(...)")
        elif lookup is not None and id(node) not in raised:
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


#: Hot functions whose job is to make one callable: a syscall's request
#: builder, made once per name and proxy, and a program body, made once per
#: program.  Their ``def`` is exempt from the callable-per-call rule; every
#: other rule still reads all of their source, the callable's body included.
BUILDERS = {"SysProxy.__getattr__", "workloads.base.app_body", "workloads.base.child_body"}


@pytest.mark.parametrize("name,obj", HOT, ids=[name for name, _ in HOT])
def test_hot_function_binds_enum_members_once(name, obj):
    """Every rule: no enum member through its class, no frozen record, no
    callable made per call."""
    assert violations(_function(obj), builder=name in BUILDERS) == []


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


def test_the_guard_sees_every_callable_made_per_call():
    def planted(op, ctx, step):
        first = functools.partial(step, op, ctx)
        second = partial(step, op)  # the same function through an alias
        third = lambda: step(op, ctx)
        def fourth():
            return step(op, ctx)
        return first, second, third, fourth, sorted([op], key=len)

    assert violations(planted) == [
        "line 2: partial(...)",
        "line 3: partial(...)",
        "line 4: lambda",
        "line 5: def fourth",
    ]
    assert violations(planted, builder=True) == [
        "line 2: partial(...)",
        "line 3: partial(...)",
        "line 4: lambda",
    ]


#: a module-level alias that still is an enum member, for the guard's own test
PLANTED_FLAG = OpenFlags.O_WRONLY

#: the same function under another name, for the guard's own test
partial = functools.partial


#: The classes whose instances the per-op path reads: the machine and its
#: tracer, file system and walker, both front doors, the chain and its
#: policy and cache, and the fault plan the network consults per call.
HOT_CLASSES = [
    Machine,
    Supervisor,
    Pipeline,
    vfs.VFS,
    LocalFS,
    TraceSession,
    AclPolicy,
    ReadCache,
    FaultPlan,
    chirp_server._Connection,
]

#: The methods that run while an instance is being built.
_INIT_METHODS = ("__init__", "__post_init__")


def _self_stores(fn) -> set[str]:
    """The attributes ``fn`` stores on its first argument."""
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):  # generated (a dataclass's __init__)
        return set()
    tree = ast.parse(textwrap.dedent(source))
    fn_node = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )
    args = fn_node.args.args
    if not args:
        return set()
    me = args[0].arg
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == me
    }


def late_attributes(cls) -> list[str]:
    """``"Owner.method: self.attr"`` for each attribute a method of
    ``cls`` or of one of its bases in this project stores, that no
    ``__init__`` or ``__post_init__`` of theirs sets and that is neither a
    dataclass field nor a property."""
    declared: set[str] = set()
    if dataclasses.is_dataclass(cls):
        declared.update(f.name for f in dataclasses.fields(cls))
    stored: list[tuple[str, str]] = []
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro."):
            continue
        for name, member in vars(klass).items():
            if isinstance(member, property):
                declared.add(name)
                functions = [member.fget, member.fset, member.fdel]
            elif inspect.isfunction(member):
                functions = [member]
            else:
                continue  # class and static methods store on no instance
            for fn in functions:
                if fn is None:
                    continue
                for attr in _self_stores(fn):
                    if name in _INIT_METHODS:
                        declared.add(attr)
                    else:
                        stored.append((f"{klass.__name__}.{name}", attr))
    return sorted(f"{where}: self.{attr}" for where, attr in stored if attr not in declared)


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=[c.__name__ for c in HOT_CLASSES])
def test_hot_class_sets_every_attribute_in_init(cls):
    assert late_attributes(cls) == []


def test_the_class_rule_sees_an_attribute_set_late():
    class Base:
        def __init__(self):
            self.inherited = 0

    @dataclasses.dataclass
    class Planted(Base):
        field_value: int = 0

        def __post_init__(self):
            super().__init__()
            self.built = 1

        @property
        def shown(self):
            return self._shown

        @shown.setter
        def shown(self, value):
            self._shown = value

        def touch(self):
            self.inherited += 1
            self.field_value = self.built = 2
            self.late, self.later = 3, 4

    Planted.__module__ = Base.__module__ = "repro.planted"
    assert late_attributes(Planted) == [
        "Planted.shown: self._shown",
        "Planted.touch: self.late",
        "Planted.touch: self.later",
    ]
