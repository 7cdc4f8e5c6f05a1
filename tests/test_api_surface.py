"""Public API surface: imports, exports, and small inspection helpers."""

import pytest

import repro
from repro.kernel import Errno, KernelError
from tests.helpers import make_server


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_subpackage_exports_resolve():
    import repro.chirp
    import repro.core
    import repro.gsi
    import repro.interpose
    import repro.kernel
    import repro.net
    import repro.workloads

    for module in (
        repro.chirp,
        repro.core,
        repro.gsi,
        repro.interpose,
        repro.kernel,
        repro.net,
        repro.workloads,
    ):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name}"


def test_public_modules_have_docstrings():
    import importlib
    import pkgutil

    missing = []
    package = repro
    for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_machine_process_inspection(machine, alice):
    def body(proc, args):
        yield proc.compute(us=1)
        return 0

    proc = machine.spawn(body, cred=alice)
    assert proc in machine.live_processes()
    assert machine.process(proc.pid) is proc
    machine.run_to_completion()
    assert proc not in machine.live_processes()
    # a reaped process leaves the table: its pid no longer names it
    assert proc not in machine.processes()
    with pytest.raises(KernelError) as exc:
        machine.process(proc.pid)
    assert exc.value.errno is Errno.ESRCH


def test_proc_context_compute_units():
    from repro.kernel import ProcContext

    request = ProcContext.compute(ns=1, us=1, ms=1, s=1)
    assert request.compute_ns == 1 + 1_000 + 1_000_000 + 1_000_000_000


def test_chirp_driver_disconnect_all(world):
    from repro.chirp import ChirpDriver
    from repro.chirp.auth import HostnameAuthenticator
    from repro.net import Cluster

    cluster = Cluster()
    cluster.add_machine("srv")
    cluster.add_machine("cli")
    machine = cluster.machine("srv")
    owner = machine.add_user("op")
    from repro.core import Acl, Rights

    server = make_server(machine, owner, read_cache=world.read_cache, network=cluster.network)
    acl = Acl()
    acl.set_entry("hostname:*", Rights.parse("rwlxa"))
    server.set_root_acl(acl)
    server.serve()
    driver = ChirpDriver(cluster.network, "cli", [HostnameAuthenticator()])
    assert driver.readdir("/srv/") == []
    assert len(driver._clients) == 1
    driver.disconnect_all()
    assert len(driver._clients) == 0
    # reconnects transparently on next use
    assert driver.readdir("/srv/") == []


def test_version_string():
    assert repro.__version__.count(".") == 2
