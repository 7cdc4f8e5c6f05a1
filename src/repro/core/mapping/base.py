"""Common machinery for the Figure-1 identity-mapping methods.

Figure 1 of the paper compares seven ways of admitting a grid user to a
local system: single, untrusted, private, group, anonymous, and pooled
accounts, plus the identity box.  Each method here is a concrete
:class:`MappingMethod` that admits grid identities to a :class:`Site`
(one simulated machine run by one service operator) and hands back a
:class:`SiteSession` through which the visitor acts.

The evaluator (:mod:`.evaluator`) then *measures* the figure's columns
instead of asserting them: it runs a hostile-visitor scenario against the
owner's private file, a cross-user privacy probe, a sharing grant, a
logout/return round-trip, and counts manual root interventions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ...kernel.errno import KernelError
from ...kernel.machine import Machine
from ...kernel.users import Credentials
from ...kernel.vfs import join

#: Mode of the site owner's private file the hostile scenario attacks.
OWNER_SECRET = "/home/siteop/private.dat"


class NeedsAdministrator(Exception):
    """Admission stalled: a human must act as root before this user can
    log in (the "Admin Burden" column)."""


@dataclass
class Site:
    """One resource-providing site: a machine, its operator, and a count
    of manual root interventions."""

    machine: Machine
    #: the unprivileged service operator ("siteop") running the gateway
    operator: Credentials
    #: root credentials, used *only* through :meth:`admin_action`
    root: Credentials
    manual_admin_actions: int = 0

    @classmethod
    def build(cls) -> "Site":
        machine = Machine()
        operator = machine.add_user("siteop")
        root = machine.users.credentials_for("root")
        site = cls(machine=machine, operator=operator, root=root)
        # the owner's private data that "protects owner" scenarios attack
        op_task = machine.host_task(operator)
        machine.write_file(op_task, OWNER_SECRET, b"the owner's secret", mode=0o600)
        return site

    def admin_action(self, description: str) -> Credentials:
        """A human administrator logs in as root: counted as burden."""
        self.manual_admin_actions += 1
        return self.root

    def automated_root(self) -> Credentials:
        """Root authority exercised by an *unattended* daemon (anonymous /
        pool accounts): privileged, but not a manual burden."""
        return self.root


@dataclass
class SiteSession:
    """A logged-in grid user's handle on a site.

    The base implementation acts through plain kernel calls under a local
    Unix credential; the identity-box method overrides the hooks to act
    through boxed processes instead.
    """

    site: Site
    grid_identity: str
    cred: Credentials
    home: str
    method: "MappingMethod"
    alive: bool = True

    # -- primitive actions (override points) ------------------------------ #

    def _task(self):
        return self.site.machine.host_task(self.cred, cwd=self.home)

    def write_file(self, name: str, data: bytes) -> bool:
        """Store data under the session's workspace; False on denial."""
        try:
            self.site.machine.write_file(self._task(), join(self.home, name), data)
            return True
        except KernelError:
            return False

    def read_file(self, path: str) -> bytes | None:
        """Read an absolute path; None on denial/absence."""
        try:
            return self.site.machine.read_file(self._task(), path)
        except KernelError:
            return None

    def path_of(self, name: str) -> str:
        return join(self.home, name)

    def grant(self, other_grid_identity: str) -> bool:
        """Try to share this session's workspace with another *grid*
        identity.  The default Unix implementation fails: an ordinary
        user has no way to translate a grid name into a local account,
        let alone grant it rights (§1: sharing "requires each user to
        know the local identities", which are unavailable here)."""
        return False

    def logout(self) -> None:
        self.alive = False
        self.method.on_logout(self)


class MappingMethod(abc.ABC):
    """One row of Figure 1."""

    #: short name matching the figure ("Single", "Private", ...)
    name: str = "?"
    #: does operating this gateway require root? (the figure's column 2)
    requires_privilege: bool = False

    def __init__(self, site: Site) -> None:
        self.site = site

    @abc.abstractmethod
    def admit(self, grid_identity: str) -> SiteSession:
        """Authenticate + map a grid identity to a local session.

        Raises :class:`NeedsAdministrator` when a human must intervene
        first; the evaluator then performs the intervention via
        :meth:`administer` and retries — counting the burden.
        """

    def administer(self, grid_identity: str) -> None:
        """Manual root step enabling a future :meth:`admit` (default: none)."""
        raise NeedsAdministrator(f"{self.name} has no administration procedure")

    def on_logout(self, session: SiteSession) -> None:
        """Hook for methods that tear down accounts at logout."""
