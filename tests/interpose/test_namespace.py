"""The mount table and driver routing."""

import pytest

from repro.interpose.drivers import DRIVER_OPS, NATIVE, Driver, LocalDriver, Namespace
from repro.kernel.errno import Errno, KernelError


class FakeDriver(Driver):
    name = "fake"
    requires_local_acl = False


@pytest.fixture
def local(machine, alice):
    return LocalDriver(machine, machine.host_task(alice))


@pytest.fixture
def ns(local):
    return Namespace(local)


def test_unmounted_paths_go_to_root_driver(ns, local):
    driver, sub = ns.route("/home/alice/f")
    assert driver is local
    assert sub == "/home/alice/f"


def test_mount_prefix_routing(ns, local):
    fake = FakeDriver()
    ns.mount("/chirp", fake)
    driver, sub = ns.route("/chirp/server1/data")
    assert driver is fake
    assert sub == "/server1/data"
    driver, _ = ns.route("/chirpy/other")
    assert driver is local  # prefix must match on a component boundary


def test_mount_point_itself_routes(ns):
    fake = FakeDriver()
    ns.mount("/chirp", fake)
    driver, sub = ns.route("/chirp")
    assert driver is fake
    assert sub == "/"


def test_longest_prefix_wins(ns):
    outer, inner = FakeDriver(), FakeDriver()
    ns.mount("/svc", outer)
    ns.mount("/svc/special", inner)
    assert ns.route("/svc/special/x")[0] is inner
    assert ns.route("/svc/other")[0] is outer


def test_relative_mount_rejected(ns):
    with pytest.raises(KernelError) as info:
        ns.mount("chirp", FakeDriver())
    assert info.value.errno is Errno.EINVAL


def test_mounts_listing(ns):
    fake = FakeDriver()
    ns.mount("/chirp", fake)
    assert ns.mounts() == [("/chirp", fake)]


# -- LocalDriver delegates to the owner's kernel context -------------------- #


def test_local_driver_open_read_write(machine, alice, local):
    from repro.kernel.fdtable import OpenFlags

    handle = local.open("/tmp/f", int(OpenFlags.O_RDWR | OpenFlags.O_CREAT), 0o644)
    assert local.write(handle, b"abc") == 3
    local.lseek(handle, 0, 0)
    assert local.read(handle, 3) == b"abc"
    assert local.fstat(handle).st_size == 3
    local.close(handle)


def test_local_driver_metadata_ops(machine, alice, local):
    local.mkdir("/tmp/d", 0o755)
    assert local.stat("/tmp/d").is_dir
    local.symlink("/tmp/d", "/tmp/link")
    assert local.readlink("/tmp/link") == "/tmp/d"
    assert "d" in local.readdir("/tmp")
    local.unlink("/tmp/link")
    local.rmdir("/tmp/d")


def test_local_driver_errors_propagate_as_kernel_errors(local):
    with pytest.raises(KernelError) as info:
        local.stat("/no/such/path")
    assert info.value.errno is Errno.ENOENT


def test_abstract_driver_everything_enosys():
    driver = Driver()
    for method, args in [
        ("open", ("/x", 0, 0)),
        ("stat", ("/x",)),
        ("readdir", ("/x",)),
        ("mkdir", ("/x", 0o755)),
        ("fetch_executable", ("/x",)),
    ]:
        with pytest.raises(KernelError) as info:
            getattr(driver, method)(*args)
        assert info.value.errno is Errno.ENOSYS


@pytest.mark.parametrize("op", DRIVER_OPS)
def test_a_driver_that_lacks_an_op_answers_enosys(op):
    with pytest.raises(KernelError) as exc:
        getattr(NATIVE, op)("/x", 0, 0)
    assert exc.value.errno is Errno.ENOSYS
    assert str(exc.value) == f"ENOSYS: native: {op}"


def test_only_the_ops_a_driver_lacks_fall_back(local):
    assert local.stat("/").is_dir
    with pytest.raises(KernelError) as exc:
        local.getacl("/")  # the local driver leaves ACLs to the policy
    assert str(exc.value) == "ENOSYS: local: getacl"


def test_a_name_that_is_no_driver_op_is_an_attribute_error(local):
    with pytest.raises(AttributeError):
        NATIVE.chmod
    assert not hasattr(local, "opne")
