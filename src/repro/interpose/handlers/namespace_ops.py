"""Namespace-mutating syscalls inside an identity box.

``mkdir`` carries the paper's most interesting semantics: a visitor with
``w`` in the parent gets a directory that *inherits* the parent ACL, while
a visitor holding only the reserve right ``v(...)`` gets a fresh private
namespace initialized with the parenthesized rights (§4).  Hard links are
the one place the paper's monitor must refuse rather than check — there is
no unique containing directory to consult ("Overlooking indirect paths",
§6).  Those rules all live in the shared pipeline now (the mkdir plan,
rmdir's two-armed check, and the hard-link vetting run before these
handlers); what remains here is the delegated action itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...core.ops import (
    OP_PATH_SPECS,
    OpSpec,
    rename_clearing_acl,
    rmdir_clearing_acl,
)

if TYPE_CHECKING:  # pragma: no cover
    from ...core.pipeline import Operation
    from . import SyscallContext


def h_mkdir(op: "Operation", ctx: "SyscallContext") -> None:
    path = op.path()
    path.driver.mkdir(path.sub, op.args["mode"])
    if path.check_acl:
        ctx.sup.policy.apply_mkdir(path.sub, op.scratch["mkdir_acl"])
        ctx.audit("mkdir", path.full, True, "acl-installed")
    ctx.finish(0)


def h_rmdir(op: "Operation", ctx: "SyscallContext") -> None:
    path = op.path()
    if path.check_acl:
        ctx.sup.policy.invalidate(path.sub)  # its ACL dies with it
        rmdir_clearing_acl(path.driver, path.sub)
    else:
        path.driver.rmdir(path.sub)
    ctx.finish(0)


def h_unlink(op: "Operation", ctx: "SyscallContext") -> None:
    path = op.path()
    path.driver.unlink(path.sub)
    ctx.finish(0)


def h_rename(op: "Operation", ctx: "SyscallContext") -> None:
    old, new = op.path(0), op.path(1)
    if old.check_acl:
        # a moved directory keeps its inode and its ACL; only an empty
        # directory the rename replaces dies
        ctx.sup.policy.invalidate(new.sub)
        rename_clearing_acl(old.driver, old.sub, new.sub)
    else:
        old.driver.rename(old.sub, new.sub)
    ctx.finish(0)


def h_symlink(op: "Operation", ctx: "SyscallContext") -> None:
    # the target is stored raw, never resolved here, so it is not a
    # checked path argument; it still costs a child-memory peek
    target = ctx.sup.machine.trace.peek_string_cost(ctx.proc, op.args["target"])
    link = op.path()
    link.driver.symlink(target, link.sub)
    ctx.finish(0)


def h_link(op: "Operation", ctx: "SyscallContext") -> None:
    old, new = op.path(0), op.path(1)
    old.driver.link(old.sub, new.sub)
    ctx.finish(0)


def register(registry) -> None:
    """Contribute the namespace-mutating ops to ``registry``."""
    for name, handler in [
        ("mkdir", h_mkdir),
        ("rmdir", h_rmdir),
        ("unlink", h_unlink),
        ("rename", h_rename),
        ("symlink", h_symlink),
        ("link", h_link),
    ]:
        registry.register(OpSpec(name, handler, paths=OP_PATH_SPECS.get(name, ())))
