"""Signal policies: the §3 rule and the Figure-6 hierarchical extension."""


from repro.core.box import IdentityBox
from repro.interpose.signal_policy import (
    HierarchicalSignalPolicy,
    SameIdentityPolicy,
)
from repro.interpose.supervisor import Supervisor
from repro.kernel import Errno, Signal
from tests.helpers import run_calls


def test_same_identity_policy():
    policy = SameIdentityPolicy()
    assert policy.may_signal("Freddy", "Freddy")
    assert not policy.may_signal("Freddy", "George")


def test_hierarchical_policy_ancestry():
    policy = HierarchicalSignalPolicy()
    assert policy.may_signal("root:dthain", "root:dthain:visitor")
    assert policy.may_signal("root", "root:grid:anon5")
    assert not policy.may_signal("root:dthain:visitor", "root:dthain")
    assert not policy.may_signal("root:httpd", "root:dthain:visitor")


def test_hierarchical_policy_same_identity():
    policy = HierarchicalSignalPolicy()
    assert policy.may_signal("root:a", "root:a")


def test_hierarchical_policy_label_boundaries():
    policy = HierarchicalSignalPolicy()
    # "root:dt" is NOT an ancestor of "root:dthain" (prefix of a label)
    assert not policy.may_signal("root:dt", "root:dthain")


def test_unparseable_identities_fall_back_to_equality():
    policy = HierarchicalSignalPolicy()
    # equality always wins, parseable or not
    assert policy.may_signal("a::b", "a::b")
    # identities with empty labels don't parse; ancestry never applies
    assert not policy.may_signal("a::b", "a::b:c")


def _spin_victim(box, comm="victim"):
    def victim(proc, args):
        for _ in range(300):  # long-lived but finite, so denied kills drain
            yield proc.compute(us=5)
        return 0

    return box.spawn(victim, comm=comm)


def test_supervisor_with_hierarchical_policy(machine, alice):
    supervisor = Supervisor(machine, alice, signal_policy=HierarchicalSignalPolicy())
    parent_box = IdentityBox(machine, alice, "root:dthain", supervisor=supervisor)
    child_box = IdentityBox(
        machine, alice, "root:dthain:visitor", supervisor=supervisor
    )
    victim = _spin_victim(child_box)
    results = run_calls(
        [("kill", victim.pid, int(Signal.SIGKILL))], machine=machine, box=parent_box
    )
    assert results == [0]
    assert not victim.alive


def test_hierarchical_policy_still_blocks_upward(machine, alice):
    supervisor = Supervisor(machine, alice, signal_policy=HierarchicalSignalPolicy())
    parent_box = IdentityBox(machine, alice, "root:dthain", supervisor=supervisor)
    child_box = IdentityBox(
        machine, alice, "root:dthain:visitor", supervisor=supervisor
    )
    victim = _spin_victim(parent_box)
    results = run_calls(
        [("kill", victim.pid, int(Signal.SIGKILL))], machine=machine, box=child_box
    )
    assert results == [-Errno.EPERM]
    assert victim.exit_status == 0  # ran to completion, unharmed


def test_default_policy_unchanged(machine, alice):
    supervisor = Supervisor(machine, alice)
    a = IdentityBox(machine, alice, "root:dthain", supervisor=supervisor)
    b = IdentityBox(machine, alice, "root:dthain:visitor", supervisor=supervisor)
    victim = _spin_victim(b)
    # without the hierarchical policy, ancestry means nothing
    results = run_calls(
        [("kill", victim.pid, int(Signal.SIGKILL))], machine=machine, box=a
    )
    assert results == [-Errno.EPERM]
    assert victim.exit_status == 0
