"""A cluster: several simulated machines sharing one clock and network.

Distributed experiments (Figure 3's Chirp workflow) need a client host and
a server host whose simulated times advance together; a :class:`Cluster`
provides that plus the wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.machine import Machine
from ..kernel.timing import Clock, CostModel
from .faults import Blackout, FaultPlan
from .network import Network


@dataclass
class Cluster:
    """A set of machines on one network, one shared simulated clock."""

    costs: CostModel = field(default_factory=CostModel)
    clock: Clock = field(default_factory=Clock)
    machines: dict[str, Machine] = field(default_factory=dict)
    network: Network = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.network is None:
            self.network = Network(clock=self.clock, costs=self.costs)

    def add_machine(self, hostname: str) -> Machine:
        """Provision a host: its kernel shares the cluster clock."""
        if hostname in self.machines:
            raise ValueError(f"host {hostname!r} already exists")
        machine = Machine(costs=self.costs, hostname=hostname, clock=self.clock)
        self.machines[hostname] = machine
        self.network.add_host(hostname)
        return machine

    def machine(self, hostname: str) -> Machine:
        return self.machines[hostname]

    # ------------------------------------------------------------------ #
    # failure model
    # ------------------------------------------------------------------ #

    def install_faults(self, plan: FaultPlan | None) -> None:
        """Subject the cluster's wires to a seeded fault plan."""
        self.network.install_faults(plan)

    def schedule_blackout(
        self, port: int, start_op: int, end_op: int, host: str = ""
    ) -> Blackout:
        """Schedule a whole-endpoint outage on the installed fault plan.

        Extends the current plan (installing an otherwise-silent one if
        none is active) with a :class:`~repro.net.faults.Blackout`: while
        the plan's global op counter is inside ``[start_op, end_op)``,
        connects to ``host:port`` are refused and live connections break.
        An empty ``host`` darkens every endpoint on the port.
        """
        plan = self.network.faults
        if plan is None:
            plan = FaultPlan(ports=(port,))
            self.network.install_faults(plan)
        elif plan.ports is not None and port not in plan.ports:
            plan.ports = plan.ports + (port,)
        blackout = Blackout(port=port, start_op=start_op, end_op=end_op, host=host)
        plan.blackouts = plan.blackouts + (blackout,)
        return blackout

    def crash_server(self, hostname: str, port: int | None = None) -> int:
        """Abruptly kill a host's services: live connections break and,
        when ``port`` is given, that port stops listening until the server
        is served again.  Returns the number of connections broken."""
        if port is None:
            return self.network.break_connections(hostname)
        return self.network.crash_service(hostname, port)

    def run_all(self) -> None:
        """Drain every machine's scheduler (servers may enqueue work)."""
        for machine in self.machines.values():
            machine.run()
