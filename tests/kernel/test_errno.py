"""Errno values and KernelError behaviour."""

import pytest

from repro.kernel.errno import Errno, KernelError, err


def test_values_match_linux():
    assert Errno.EPERM == 1
    assert Errno.ENOENT == 2
    assert Errno.EACCES == 13
    assert Errno.EEXIST == 17
    assert Errno.ENOSYS == 38


def test_kernel_error_carries_errno():
    exc = KernelError(Errno.EACCES, "no entry")
    assert exc.errno is Errno.EACCES
    assert "EACCES" in str(exc)
    assert "no entry" in str(exc)


def test_err_helper_builds_kernel_error():
    exc = err(Errno.ENOENT)
    assert isinstance(exc, KernelError)
    assert exc.errno is Errno.ENOENT


def test_kernel_error_accepts_int():
    exc = KernelError(2)
    assert exc.errno is Errno.ENOENT


def test_kernel_error_is_raisable():
    with pytest.raises(KernelError) as info:
        raise err(Errno.EBADF, "fd 7")
    assert info.value.errno is Errno.EBADF


def test_message_optional():
    assert str(KernelError(Errno.EIO)) == "EIO"


def test_negative_return_convention_roundtrip():
    # the dispatcher encodes errors as -errno; decoding must invert it
    for errno in (Errno.EPERM, Errno.ENOENT, Errno.ELOOP):
        assert Errno(-(-int(errno))) is errno


def test_kernel_error_repr_names_the_errno_and_the_message():
    assert repr(err(Errno.ENOENT, "/x")) == "KernelError(ENOENT, 'ENOENT: /x')"
