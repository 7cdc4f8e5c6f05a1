"""The Chirp wire protocol.

"A Chirp server exports the available file space using a protocol that
closely resembles the Unix I/O interface" (§4).  Requests are framed
messages with an ``op`` field; responses carry ``ok`` plus either a result
payload or an ``errno``.  The reproduction adds the paper's one protocol
extension — "we have added to the Chirp protocol a simple ``exec`` call
that invokes a remote process" — and an ``aclcheck`` probe used by the
Parrot driver before running remote executables locally.

Staging moves whole files, as cctools Chirp does: ``getfile`` returns a
file's bytes and ``putfile`` replaces them, each in one round trip with
the bytes riding as one out-of-band payload segment.  The descriptor ops
(``open``/``pread``/``pwrite``/``close``) remain for the Parrot driver,
whose applications read and write at offsets of their own choosing.
"""

from __future__ import annotations

from dataclasses import dataclass
from stat import S_IFDIR, S_IFLNK, S_IFREG
from typing import Any

from ..kernel.errno import Errno, KernelError
from ..net.rpc import ProtocolError, decode_message, encode_message

#: File-type bits of a mode (``stat.S_IFMT`` as a mask), for :func:`stat_fields`.
_S_IFMT = 0o170000

#: Default TCP port of a Chirp server (as in the real implementation).
CHIRP_PORT = 9094

#: Hidden staging suffix for in-flight federation transfers (cross-shard
#: renames and anti-entropy repair); shielded from directory listings and
#: export manifests so half-finished copies are never visible.
FED_XFER_SUFFIX = ".__fedxfer__"

#: Operations a connection may issue before authenticating.
PRE_AUTH_OPS = frozenset({"auth"})

#: The fast-lane coalescing envelope: one wire frame carrying several
#: adjacent requests from one connection.  The envelope is framing, not
#: an operation — the server unpacks it and runs each inner request
#: through the pipeline — so it may not nest and may not carry ``auth``
#: (identity must be settled before frames can be coalesced under it).
BATCH_OP = "batch"

#: Bound on requests per batch frame; a longer envelope is refused
#: whole with EINVAL.
BATCH_LIMIT = 64

#: Chunk size the server moves a ``getfile``/``putfile`` body through the
#: kernel in (positioned I/O, as the descriptor path would issue it).
CHUNK = 64 * 1024

#: The Unix-like operation set.
FILE_OPS = frozenset(
    {
        "open",
        "close",
        "pread",
        "pwrite",
        "getfile",
        "putfile",
        "fstat",
        "ftruncate",
        "stat",
        "lstat",
        "access",
        "readdir",
        "mkdir",
        "rmdir",
        "unlink",
        "rename",
        "symlink",
        "readlink",
        "link",
        "truncate",
        "getacl",
        "setacl",
        "aclcheck",
        "whoami",
        "exec",
    }
)

ALL_OPS = PRE_AUTH_OPS | FILE_OPS | {BATCH_OP}

#: Requests that may ride inside a batch envelope.  Whole-file transfers
#: may not: a keyed envelope's stored reply would then hold file bytes.
BATCHABLE_OPS = FILE_OPS - {"getfile", "putfile"}


def batch_request(frames: list[dict], **envelope: Any) -> bytes:
    """Encode a batch envelope around already-decoded request dicts."""
    for frame in frames:
        op = frame.get("op")
        if op not in BATCHABLE_OPS:
            raise ProtocolError(f"op {op!r} cannot be coalesced")
    return encode_message({"op": BATCH_OP, "frames": list(frames), **envelope})


class ChirpError(KernelError):
    """A Chirp answer (or a failed call): the server's errno and text, as
    the :class:`KernelError` a boxed program sees through ``/chirp``."""

    #: ``ChirpError('EACCES: ...')``, the spelling fuzz transcripts record
    __repr__ = Exception.__repr__


def request(op: str, **fields: Any) -> bytes:
    """Encode a request frame."""
    if op not in ALL_OPS:
        raise ProtocolError(f"unknown op {op!r}")
    return encode_message({"op": op, **fields})


def ok_response(**fields: Any) -> bytes:
    return encode_message({"ok": True, **fields})


def error_response(errno: Errno, message: str = "") -> bytes:
    return encode_message({"ok": False, "errno": int(errno), "error": message})


class UnknownOpError(ProtocolError):
    """A well-framed request naming no known operation.

    Distinct from a framing failure: the byte stream is still in sync,
    so the server can answer EINVAL and keep the connection alive,
    whereas an undecodable frame poisons the whole connection.
    """


def parse_request(frame: bytes) -> dict[str, Any]:
    """Decode and validate a request frame (server side)."""
    message = decode_message(frame)
    op = message.get("op")
    if not isinstance(op, str) or op not in ALL_OPS:
        raise UnknownOpError(f"bad op {op!r}")
    return message


def parse_response(frame: bytes) -> dict[str, Any]:
    """Decode a response; raise :class:`ChirpError` if it reports failure."""
    message = decode_message(frame)
    if message.get("ok"):
        return message
    code = message.get("errno", int(Errno.EIO))
    try:
        errno = Errno(code)
    except ValueError:
        raise ProtocolError(f"failure reply carries unknown errno {code!r}") from None
    raise ChirpError(errno, str(message.get("error", "")))


@dataclass(frozen=True)
class StatPayload:
    """Flattened stat result as carried on the wire.

    ``from_stat`` and ``from_fields`` fill the fields in directly, not
    through the frozen dataclass's ``__init__`` (DESIGN.md §12); the
    record is the same frozen one
    (``tests/properties/test_prop_stat_payload.py``).
    """

    size: int
    is_dir: bool
    is_file: bool
    is_symlink: bool
    nlink: int
    mtime_ns: int
    #: permission bits (no file-type bits); lets a cross-shard transfer
    #: re-create the file with the same mode (notably the exec bit)
    mode: int = 0o644

    @classmethod
    def from_stat(cls, st) -> "StatPayload":
        payload = object.__new__(cls)
        payload.__dict__.update(stat_fields(st))
        return payload

    def to_fields(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "is_dir": self.is_dir,
            "is_file": self.is_file,
            "is_symlink": self.is_symlink,
            "nlink": self.nlink,
            "mtime_ns": self.mtime_ns,
            "mode": self.mode,
        }

    @classmethod
    def from_fields(cls, fields: dict[str, Any]) -> "StatPayload":
        payload = object.__new__(cls)
        out = payload.__dict__
        out["size"] = int(fields["size"])
        out["is_dir"] = bool(fields["is_dir"])
        out["is_file"] = bool(fields["is_file"])
        out["is_symlink"] = bool(fields["is_symlink"])
        out["nlink"] = int(fields["nlink"])
        out["mtime_ns"] = int(fields["mtime_ns"])
        out["mode"] = int(fields.get("mode", 0o644))
        return payload


def stat_fields(st) -> dict[str, Any]:
    """The wire fields of a ``StatResult``: what
    ``StatPayload.from_stat(st).to_fields()`` gives, without the record
    (the server's stat replies are built here)."""
    mode = st.st_mode
    kind = mode & _S_IFMT
    return {
        "size": st.st_size,
        "is_dir": kind == S_IFDIR,
        "is_file": kind == S_IFREG,
        "is_symlink": kind == S_IFLNK,
        "nlink": st.st_nlink,
        "mtime_ns": st.st_mtime_ns,
        "mode": mode & 0o7777,
    }
