"""The identity box: the paper's primary contribution, as a public API.

An identity box is "a secure execution space in which all processes and
resources are associated with an external identity that need not have any
relationship to the set of local accounts" (§3).  This module offers the
equivalent of the paper's ``parrot_identity_box <identity> <command>``:

    >>> box = IdentityBox(machine, owner_cred, "Freddy")
    >>> proc = box.spawn(my_program)
    >>> machine.run()

On creation the box arranges, exactly as §3 describes:

* a fresh home directory for the visitor, with an ACL granting the
  visiting identity ``rwlax`` there and nothing anywhere else,
* a private ``/etc/passwd`` copy whose top entry maps the supervising
  user's uid to the visiting identity (so ``whoami`` answers sensibly),
* supervision of the process and all its descendants under the
  interposition agent, which enforces ACLs, signal containment, and the
  ``get_user_name`` syscall.

Any user may create a box — no root, no account database, no
administrator.  The supervising user "is root with respect to users in
the identity box"; several boxes with different identities can share one
supervisor, which is how a server would host many visitors at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..interpose.supervisor import Supervisor
from ..kernel.errno import Errno, KernelError
from ..kernel.vfs import join
from .acl import Acl
from .audit import AuditLog
from .identity import mangle_for_path, validate_identity
from .passwd import create_private_passwd

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.machine import Machine
    from ..kernel.process import Process, ProgramFactory
    from ..kernel.users import Credentials

#: Default parent directory for visitor home directories.
DEFAULT_BOXES_ROOT = "/tmp/boxes"


class IdentityBox:
    """One visiting identity hosted by one supervising user."""

    def __init__(
        self,
        machine: "Machine",
        owner_cred: "Credentials",
        identity: str,
        *,
        supervisor: Supervisor | None = None,
        boxes_root: str = DEFAULT_BOXES_ROOT,
        audit: AuditLog | None = None,
        make_home: bool = True,
    ) -> None:
        self.machine = machine
        self.identity = validate_identity(identity)
        self.supervisor = supervisor or Supervisor(
            machine, owner_cred, audit=audit
        )
        self.owner_task = self.supervisor.task
        self.home = ""
        self.passwd_path = ""
        self._boxes_root = boxes_root
        self._made_home = make_home
        if make_home:
            self._setup_home(boxes_root)

    def fork(self, machine: "Machine") -> "IdentityBox":
        """Re-host this box on a forked world.

        The forked world's filesystem already carries the home directory,
        ACL, and private passwd copy if they existed when the snapshot was
        taken, so re-running setup is cheap (``mkdir`` returns ``EEXIST``
        and the ACL is only rewritten for a genuinely new home).  The
        supervisor is forked alongside — fresh process table, counters,
        and trace lineage bound to the child world.
        """
        return IdentityBox(
            machine,
            machine.users.credentials_for(self.supervisor.owner_cred.username),
            self.identity,
            supervisor=self.supervisor.fork(machine),
            boxes_root=self._boxes_root,
            make_home=self._made_home,
        )

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def _setup_home(self, boxes_root: str) -> None:
        """Fresh home directory + ACL + private passwd copy (§3)."""
        self._ensure_dir(boxes_root)
        self.home = join(boxes_root, mangle_for_path(self.identity))
        created = self._ensure_dir(self.home)
        if created:
            self.supervisor.policy.write_acl(self.home, Acl.for_owner(self.identity))
        self.passwd_path = join(self.home, ".passwd")
        create_private_passwd(
            self.machine, self.owner_task, self.identity, self.home, self.passwd_path
        )

    def _ensure_dir(self, path: str) -> bool:
        """mkdir -p one level; returns True if newly created."""
        try:
            self.machine.kcall_x(self.owner_task, "mkdir", path, 0o755)
            return True
        except KernelError as exc:
            if exc.errno is Errno.EEXIST:
                return False
            raise

    # ------------------------------------------------------------------ #
    # running programs inside the box
    # ------------------------------------------------------------------ #

    def spawn(
        self,
        program: "ProgramFactory | str",
        args: list[str] | None = None,
        *,
        cwd: str | None = None,
        comm: str | None = None,
    ) -> "Process":
        """Start a program inside the box (supervised, identity attached).

        ``program`` is either a program factory (a Python callable) or the
        path of an executable file, which the *supervising user* chooses to
        run — like the command argument of ``parrot_identity_box``.  The
        process and all processes it spawns carry :attr:`identity`.  A box
        whose supervisor belongs to an earlier world starts nothing (EBADF).
        """
        self.machine.check_table(self.owner_task.fdtable)
        if isinstance(program, str):
            content = self.machine.read_file(self.owner_task, program)
            factory = self.machine.parse_executable(content, program)
            label = program
        else:
            factory = program
            label = comm or getattr(program, "__name__", "boxed")
        proc = self.machine.spawn(
            factory,
            args or [],
            cred=self.supervisor.owner_cred,
            cwd=cwd or self.home or "/",
            tracer=self.supervisor,
            comm=comm or label,
        )
        self.supervisor.adopt(
            proc,
            identity=self.identity,
            home=self.home,
            passwd_redirect=self.passwd_path,
        )
        return proc

    def run(self, program: "ProgramFactory | str", args: list[str] | None = None) -> "Process":
        """Spawn and drive the machine until everything runnable finishes."""
        proc = self.spawn(program, args)
        self.machine.run()
        return proc

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #

    @property
    def policy(self):
        return self.supervisor.policy

    @property
    def audit(self) -> AuditLog | None:
        return self.supervisor.audit

    def grant(self, path: str, subject: str, rights_text: str) -> None:
        """Owner-level ACL edit (the supervising user needs no ``a`` right)."""
        from .rights import Rights

        acl = self.policy.acl_of(path)
        if acl is None:
            acl = Acl()
        acl.set_entry(subject, Rights.parse(rights_text))
        self.policy.write_acl(path, acl)


def identity_box_run(
    machine: "Machine",
    owner_cred: "Credentials",
    identity: str,
    program: "ProgramFactory | str",
    args: list[str] | None = None,
    *,
    audit: AuditLog | None = None,
) -> "Process":
    """One-shot equivalent of ``parrot_identity_box <identity> <command>``."""
    box = IdentityBox(machine, owner_cred, identity, audit=audit)
    return box.run(program, args)
