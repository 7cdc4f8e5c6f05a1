"""Retry policy, backoff, and failure classification for Chirp clients.

Wide-area Chirp traffic fails in two very different ways.  *Transient*
failures — a refused connect, a dropped connection, a truncated frame, a
shed under overload — say nothing about the operation itself and are
worth retrying after a backoff.  *Definite* failures — EACCES, ENOENT,
EBADF — are the server's answer and must surface immediately.  Both
kinds arrive as a :class:`~repro.kernel.errno.KernelError`: a
:class:`ChirpError` (a subclass) is an answer or a failure the client
raised itself, and any other ``KernelError`` comes straight from the
transport.

Retrying a mutating operation blindly can apply it twice: the classic
case is a ``rename`` whose response was lost after the server renamed.
Non-idempotent *path* operations therefore carry an idempotency key (see
:data:`IDEMPOTENCY_KEYED_OPS`); the server caches the response frame per
key and replays it instead of re-executing.  ``putfile`` is one of them:
a whole-file write retried after its reply was lost replays, so it
cannot land over a write another client made in between.  ``getfile``
is a read and carries no key, so the replay cache never holds file
bytes; a failed transfer is simply retried as a whole op.  Descriptor
operations (``open``/``pwrite``/``close``…) do not carry keys: a
descriptor dies with its connection, so a retried descriptor op after a
reconnect fails with EBADF and the Parrot driver's handle revives the
descriptor (:class:`~repro.chirp.client.RemoteFile`): it reopens the
path and reruns the op at the same absolute offset, which is idempotent
at the file level because every chunk I/O is positioned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..kernel.errno import Errno, KernelError
from ..kernel.timing import NS_PER_MS, NS_PER_S
from ..net.rpc import ProtocolError
from .protocol import ChirpError

#: Errnos that indicate transport/overload trouble rather than a verdict.
TRANSIENT_ERRNOS = frozenset(
    {
        Errno.EPIPE,
        Errno.ECONNRESET,
        Errno.ECONNREFUSED,
        Errno.ETIMEDOUT,
        Errno.EAGAIN,
        Errno.EBADMSG,
    }
)

#: Errnos that, after the retry budget is exhausted, mean the *replica* is
#: unreachable — dead, dark, or partitioned — rather than answering at all.
#: The replicated routing layer fails over (reads) or marks the replica
#: as having missed the write (quorum writes) on these; everything else is
#: the server's answer.
UNAVAILABLE_ERRNOS = frozenset(
    {
        Errno.EPIPE,
        Errno.ECONNRESET,
        Errno.ECONNREFUSED,
        Errno.ETIMEDOUT,
    }
)

#: Mutating path operations that must never be silently replayed: each
#: request carries an idempotency key the server deduplicates on.
IDEMPOTENCY_KEYED_OPS = frozenset(
    {
        "mkdir",
        "rmdir",
        "unlink",
        "rename",
        "symlink",
        "link",
        "truncate",
        "putfile",
        "setacl",
        "exec",
        # the coalescing envelope: any file op (mkdir, rename...) may
        # ride one, so keying the whole envelope is what makes it
        # exactly-once: a retry replays the stored response instead of
        # re-running every slot
        "batch",
    }
)


def is_unavailable(exc: BaseException) -> bool:
    """Is this failure the replica being unreachable (vs an answer)?"""
    if isinstance(exc, KernelError):
        return exc.errno in UNAVAILABLE_ERRNOS
    return False


def quorum(replicas: int) -> int:
    """Write quorum for a replica set: a strict majority, ⌈(k+1)/2⌉."""
    return replicas // 2 + 1


def is_transient(exc: BaseException) -> bool:
    """Would a retry plausibly succeed?"""
    if isinstance(exc, ProtocolError):
        return True  # garbled frame: connection state is unknowable
    if isinstance(exc, KernelError):
        return exc.errno in TRANSIENT_ERRNOS
    return False


def breaks_connection(exc: BaseException) -> bool:
    """Does this failure leave the connection unusable?

    An EAGAIN shed arrives on a healthy connection; everything else
    transient either broke the transport or lost framing sync.
    """
    if isinstance(exc, ChirpError):
        return exc.errno in (
            Errno.EPIPE,
            Errno.ECONNRESET,
            Errno.ETIMEDOUT,
            Errno.EBADMSG,
        )
    # a raw transport KernelError, or a frame out of sync
    return isinstance(exc, (KernelError, ProtocolError))


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a client tries before giving up.

    All times are simulated nanoseconds; the backoff *advances the
    simulated clock*, which is what lets a retried call find an overload
    token bucket refilled or a circuit cooldown expired.  Jitter is drawn
    from an RNG seeded per (policy seed, attempt, salt) so the same
    workload backs off identically on every run.
    """

    max_attempts: int = 5
    #: per-call deadline; a response landing after it counts as a timeout
    call_timeout_ns: int = 2 * NS_PER_S
    backoff_base_ns: int = 5 * NS_PER_MS
    backoff_multiplier: float = 2.0
    backoff_max_ns: int = 400 * NS_PER_MS
    jitter: float = 0.1
    seed: int = 0

    def backoff_ns(self, attempt: int, salt: int = 0) -> int:
        """Exponential backoff with deterministic jitter for retry N."""
        base = self.backoff_base_ns * (self.backoff_multiplier ** attempt)
        base = min(base, float(self.backoff_max_ns))
        if self.jitter:
            rng = random.Random(f"{self.seed}:{attempt}:{salt}")
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0, int(base))


def as_chirp_error(exc: BaseException) -> ChirpError:
    """A server's answer as it is; a transport failure as a ChirpError
    whose ``__cause__`` is that failure."""
    if isinstance(exc, ChirpError):
        return exc
    if isinstance(exc, KernelError):
        error = ChirpError(exc.errno, exc.detail)
    elif isinstance(exc, ProtocolError):
        error = ChirpError(Errno.EBADMSG, str(exc))
    else:  # pragma: no cover - programming error, not a wire failure
        raise exc
    error.__cause__ = exc
    return error
