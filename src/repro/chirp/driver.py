"""The Parrot driver for Chirp: ``/chirp/<server>/<path>`` (§4).

"Using Parrot, files on a Chirp server appear as ordinary files in the
path /chirp/server/path."  The supervisor mounts one of these at
``/chirp``; a boxed application's ``open("/chirp/server1/data")`` becomes
protocol traffic to ``server1``, authenticated as the *user's* grid
credentials.  ACLs are enforced server-side, so the driver sets
``requires_local_acl = False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..interpose.drivers import Driver
from ..kernel.errno import Errno, KernelError, err
from ..kernel.inode import StatResult
from ..kernel.syscalls import SEEK_CUR, SEEK_END, SEEK_SET
from .client import ChirpClient, RemoteFile
from .protocol import CHIRP_PORT, ChirpError, StatPayload

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from .auth import ClientAuthenticator
    from .federation import FederatedClient
    from .retry import RetryPolicy


def _stat_result(payload: StatPayload) -> StatResult:
    """Adapt a wire stat to the kernel's StatResult shape.

    Remote inodes, uids, and modes are server-private (the virtual user
    space hides them); the fields applications actually consult — size,
    type, link count, mtime — are faithful.
    """
    import stat as stat_mod

    if payload.is_dir:
        mode = stat_mod.S_IFDIR | 0o755
    elif payload.is_symlink:
        mode = stat_mod.S_IFLNK | 0o777
    else:
        mode = stat_mod.S_IFREG | 0o644
    return StatResult(
        st_ino=0,
        st_mode=mode,
        st_nlink=payload.nlink,
        st_uid=0,
        st_gid=0,
        st_size=payload.size,
        st_atime_ns=payload.mtime_ns,
        st_mtime_ns=payload.mtime_ns,
        st_ctime_ns=payload.mtime_ns,
    )


def _wrap(call):
    """Translate ChirpError into the kernel's error convention."""

    def wrapped(*args, **kwargs):
        try:
            return call(*args, **kwargs)
        except ChirpError as exc:
            raise KernelError(exc.errno, str(exc)) from exc

    return wrapped


@dataclass
class ChirpHandle(RemoteFile):
    """Driver-private open-file state: a remote descriptor that revives
    after a transparent reconnect, plus the local offset mirror."""

    offset: int = 0


class ChirpDriver(Driver):
    """Routes ``/<server>/<path>`` to per-server authenticated clients."""

    requires_local_acl = False  # ACLs are enforced by the remote server
    name = "chirp"

    def __init__(
        self,
        network: "Network",
        client_host: str,
        authenticators: "list[ClientAuthenticator]",
        port: int = CHIRP_PORT,
        retry: "RetryPolicy | None" = None,
        federations: "dict[str, FederatedClient] | None" = None,
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.authenticators = authenticators
        self.port = port
        self.retry = retry
        self._clients: dict[str, ChirpClient] = {}
        #: mounted federations: ``/chirp/<name>/path`` routes through the
        #: federation's shard map instead of naming one server
        self.federations: "dict[str, FederatedClient]" = dict(federations or {})

    # ------------------------------------------------------------------ #

    def _split(self, sub: str) -> tuple[ChirpClient, str]:
        parts = [p for p in sub.split("/") if p]
        if not parts:
            raise err(Errno.ENOENT, "no server named in /chirp path")
        host, rest = parts[0], "/" + "/".join(parts[1:])
        federation = self.federations.get(host)
        if federation is not None:
            client, _shard = _wrap(federation.client_for)(rest)
            return client, rest
        return self._client(host), rest

    def _federated(self, path: str) -> "tuple[FederatedClient, str] | None":
        """The (federation, subpath) a /chirp path routes through, if any."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            return None
        federation = self.federations.get(parts[0])
        if federation is None:
            return None
        return federation, "/" + "/".join(parts[1:])

    def _client(self, host: str) -> ChirpClient:
        client = self._clients.get(host)
        if client is None:
            client = ChirpClient.connect(
                self.network, self.client_host, host, self.port, retry=self.retry
            )
            _wrap(client.authenticate)(self.authenticators)
            self._clients[host] = client
        return client

    def disconnect_all(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        for federation in self.federations.values():
            federation.close()

    # ------------------------------------------------------------------ #
    # descriptor ops
    # ------------------------------------------------------------------ #

    def open(self, path: str, flags: int, mode: int) -> ChirpHandle:
        client, vpath = self._split(path)
        return _wrap(ChirpHandle.open)(client, vpath, flags, mode)

    def close(self, handle: ChirpHandle) -> None:
        _wrap(handle.close)()

    def read(self, handle: ChirpHandle, length: int) -> bytes:
        data = _wrap(handle.call)("pread", length, handle.offset)
        handle.offset += len(data)
        return data

    def write(self, handle: ChirpHandle, data: bytes) -> int:
        n = _wrap(handle.call)("pwrite", data, handle.offset)
        handle.offset += n
        return n

    def pread(self, handle: ChirpHandle, length: int, offset: int) -> bytes:
        return _wrap(handle.call)("pread", length, offset)

    def pwrite(self, handle: ChirpHandle, data: bytes, offset: int) -> int:
        return _wrap(handle.call)("pwrite", data, offset)

    def lseek(self, handle: ChirpHandle, offset: int, whence: int) -> int:
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = handle.offset + offset
        elif whence == SEEK_END:
            new = _wrap(handle.call)("fstat").size + offset
        else:
            raise err(Errno.EINVAL, f"whence {whence}")
        if new < 0:
            raise err(Errno.EINVAL, "negative offset")
        handle.offset = new
        return new

    def ftruncate(self, handle: ChirpHandle, length: int) -> None:
        _wrap(handle.call)("ftruncate", length)

    def fstat(self, handle: ChirpHandle) -> StatResult:
        return _stat_result(_wrap(handle.call)("fstat"))

    # ------------------------------------------------------------------ #
    # path ops
    # ------------------------------------------------------------------ #

    def stat(self, path: str) -> StatResult:
        client, vpath = self._split(path)
        return _stat_result(_wrap(client.stat)(vpath))

    def lstat(self, path: str) -> StatResult:
        client, vpath = self._split(path)
        return _stat_result(_wrap(client.lstat)(vpath))

    def readlink(self, path: str) -> str:
        client, vpath = self._split(path)
        return _wrap(client.readlink)(vpath)

    def readdir(self, path: str) -> list[str]:
        routed = self._federated(path)
        if routed is not None:
            federation, vpath = routed
            # the federation unions the root listing across shards
            return _wrap(federation.readdir)(vpath)
        client, vpath = self._split(path)
        return _wrap(client.readdir)(vpath)

    def mkdir(self, path: str, mode: int) -> None:
        client, vpath = self._split(path)
        _wrap(client.mkdir)(vpath, mode)

    def rmdir(self, path: str) -> None:
        client, vpath = self._split(path)
        _wrap(client.rmdir)(vpath)

    def unlink(self, path: str) -> None:
        client, vpath = self._split(path)
        _wrap(client.unlink)(vpath)

    def rename(self, oldpath: str, newpath: str) -> None:
        routed_old = self._federated(oldpath)
        routed_new = self._federated(newpath)
        if routed_old is not None and routed_new is not None:
            fed_old, old_v = routed_old
            fed_new, new_v = routed_new
            if fed_old is not fed_new:
                raise err(Errno.EXDEV, "rename across federations")
            # same-shard renames delegate; cross-shard renames become the
            # federation's idempotent two-phase transfer
            _wrap(fed_old.rename)(old_v, new_v)
            return
        client, old_v = self._split(oldpath)
        client2, new_v = self._split(newpath)
        if client is not client2:
            raise err(Errno.EXDEV, "rename across Chirp servers")
        _wrap(client.rename)(old_v, new_v)

    def symlink(self, target: str, linkpath: str) -> None:
        client, link_v = self._split(linkpath)
        _wrap(client.symlink)(target, link_v)

    def link(self, oldpath: str, newpath: str) -> None:
        routed_old = self._federated(oldpath)
        routed_new = self._federated(newpath)
        if routed_old is not None and routed_new is not None:
            fed_old, old_v = routed_old
            fed_new, new_v = routed_new
            if fed_old is not fed_new:
                raise err(Errno.EXDEV, "link across federations")
            _wrap(fed_old.link)(old_v, new_v)
            return
        client, old_v = self._split(oldpath)
        client2, new_v = self._split(newpath)
        if client is not client2:
            raise err(Errno.EXDEV, "link across Chirp servers")
        _wrap(client.link)(old_v, new_v)

    def truncate(self, path: str, length: int) -> None:
        client, vpath = self._split(path)
        _wrap(client.truncate)(vpath, length)

    def getacl(self, path: str) -> str:
        client, vpath = self._split(path)
        return _wrap(client.getacl)(vpath)

    def setacl(self, path: str, subject: str, rights: str) -> None:
        client, vpath = self._split(path)
        _wrap(client.setacl)(vpath, subject, rights)

    def fetch_executable(self, path: str) -> bytes:
        """Pull a remote program for local execution (needs remote ``x``)."""
        client, vpath = self._split(path)
        if not _wrap(client.aclcheck)(vpath, "x"):
            raise err(Errno.EACCES, f"no execute right on {path}")
        return _wrap(client.get)(vpath)
