"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer (the table in
:data:`LAYERS`) with a span: name, start, end, parent span and request
id.  Every op the benchmark issues runs under one root span, so each
layer's *self time* (its spans' duration minus the part their child
spans cover) telescopes: the self times of all layers plus the root's
own sum to the root spans' total.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` puts back the identical function objects.

Spans are aggregated as they close (self ns, inclusive ns, calls, bytes
moved) and the most recent ones are kept in memory for :meth:`dump`.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter_ns
from typing import Any, Callable

from repro.chirp import protocol
from repro.chirp.auth import ServerAuth
from repro.chirp.client import ChirpClient
from repro.chirp.federation import FederatedClient, ShardMap
from repro.core.aclfs import AclPolicy
from repro.core.box import IdentityBox
from repro.core.pipeline import Pipeline, ReadCache
from repro.core.telemetry import TracingInterceptor
from repro.interpose.drivers import LocalDriver
from repro.interpose.iochannel import IOChannel
from repro.interpose.supervisor import Supervisor
from repro.kernel.localfs import LocalFS
from repro.kernel.machine import Machine
from repro.kernel.ptrace import TraceSession
from repro.kernel.vfs import VFS
from repro.net.network import Connection

ROOT = "bench.root"

#: Spans kept for :meth:`Tracer.dump`; aggregation covers every span.
KEEP_SPANS = 50_000

_CLIENT_OPS = (
    "whoami open close_fd pread pwrite fstat ftruncate stat lstat access readdir "
    "readlink mkdir rmdir unlink rename symlink link truncate getacl setacl "
    "aclcheck put get batch exec close"
).split()

_FEDERATED_OPS = (
    "whoami stat lstat access readlink mkdir rmdir unlink truncate put get getacl "
    "aclcheck setacl readdir symlink link exec rename"
).split()

_DRIVER_OPS = (
    "open close read write pread pwrite lseek dup ftruncate fstat stat lstat "
    "readlink readdir mkdir rmdir unlink rename symlink link truncate "
    "fetch_executable"
).split()


def _len_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: len(args[index])


def _int_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: int(args[index])


def _len_result(args: tuple, result: Any) -> int:
    return len(result)


#: layer -> [(owner, function names, bytes-moved counter or None)].
#: ``owner`` is a class or a module; for the encoder and decoder the owner
#: is the module that imports them, because that is where callers look
#: them up.
LAYERS: dict[str, list[tuple[Any, list[str], Any]]] = {
    "interpose.supervisor": [(Supervisor, ["on_syscall_entry", "on_syscall_exit"], None)],
    "kernel.ptrace": [
        (
            TraceSession,
            [
                "peek_regs", "poke_regs", "nullify", "rewrite", "set_result",
                "peek_bytes", "poke_bytes", "peek_string_cost",
            ],
            None,
        )
    ],
    "interpose.iochannel": [
        (IOChannel, ["stage", "stage_mapped"], _len_arg(1)),
        (IOChannel, ["read_back", "read_back_mapped"], _int_arg(2)),
    ],
    "core.pipeline": [(Pipeline, ["run"], None)],
    "core.pipeline.cache": [(ReadCache, ["invalidate_paths", "invalidate_all"], None)],
    "core.aclfs": [
        (
            AclPolicy,
            [
                "check", "require_exists", "check_remove_dir", "plan_mkdir",
                "require_admin", "check_hard_link", "acl_of",
            ],
            None,
        )
    ],
    "kernel.vfs": [(VFS, ["resolve"], None)],
    "interpose.drivers": [(LocalDriver, _DRIVER_OPS, None)],
    "kernel.localfs": [
        (LocalFS, ["read_at"], _len_result),
        (LocalFS, ["write_at"], _len_arg(3)),
        (LocalFS, ["lookup"], None),
    ],
    "kernel.machine": [(Machine, ["kcall", "run_to_completion"], None)],
    "net.rpc": [
        (protocol, ["encode_message"], _len_result),
        (protocol, ["decode_message"], None),
    ],
    "net.network": [(Connection, ["call"], None)],
    "chirp.client": [(ChirpClient, ["connect", *_CLIENT_OPS], None)],
    "chirp.auth": [(ChirpClient, ["authenticate"], None), (ServerAuth, ["verify"], None)],
    "chirp.federation": [(FederatedClient, _FEDERATED_OPS, None)],
    "chirp.federation.route": [(ShardMap, ["replicas_for"], None)],
    "core.telemetry": [],  # TracingInterceptor.__call__, wrapped by hand below
    "chirp.server": [],  # the server's connection-handler class, found at run time
}


class LayerStats:
    """What the spans of one layer add up to."""

    __slots__ = ("self_ns", "entries", "amount", "calls", "incl_ns")

    def __init__(self) -> None:
        self.self_ns = 0
        #: spans entered from another layer (a layer calling itself is
        #: one entry)
        self.entries = 0
        #: bytes moved (or cache entries scanned), for layers that count them
        self.amount = 0
        #: calls per wrapped function name
        self.calls: dict[str, int] = {}
        #: duration per function name of the spans entered from another layer
        self.incl_ns: dict[str, int] = {}

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)


class Tracer:
    """Installs span wrappers on every layer and aggregates their spans."""

    def __init__(self, handler_classes: tuple[type, ...] = ()) -> None:
        self.layers: dict[str, LayerStats] = {name: LayerStats() for name in LAYERS}
        self.layers[ROOT] = LayerStats()
        self.handler_classes = handler_classes
        #: (parent layer, child layer) -> spans
        self.edges: dict[tuple[str, str], int] = {}
        #: total duration of the root spans
        self.root_ns = 0
        self.request_id = 0
        self.spans: deque[tuple] = deque(maxlen=KEEP_SPANS)
        #: (clock, charges at IdentityBox.spawn) for each boxed run
        self.sim_windows: list[tuple[Any, dict[str, int]]] = []
        self._stack: list[list] = []
        self._next_span = 0
        self.replaced: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def call(self, layer: str, name: str, fn, args: tuple, kwargs: dict, measure=None):
        """Run ``fn`` inside one span of ``layer``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_span += 1
        frame = [0, self._next_span, layer]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            stats = self.layers[layer]
            stats.self_ns += duration - frame[0]
            stats.calls[name] = stats.calls.get(name, 0) + 1
            if parent is None:
                # a span outside any root still adds self time, which
                # shows up as self-sum error against root_ns
                if layer == ROOT:
                    self.root_ns += duration
                parent_layer, parent_id = "", 0
            else:
                parent[0] += duration
                parent_layer, parent_id = parent[2], parent[1]
            if parent_layer != layer:
                stats.entries += 1
                stats.incl_ns[name] = stats.incl_ns.get(name, 0) + duration
                edge = (parent_layer, layer)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            self.spans.append((layer, name, frame[1], parent_id, self.request_id, start, end))
        if measure is not None:
            stats.amount += measure(args, result)
        return result

    def root(self, fn, *args):
        """Run one benchmark op as the root span of a new request."""
        self.request_id += 1
        return self.call(ROOT, "op", fn, args, {})

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #

    def _replace(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        self.replaced.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(make(original.__func__)))
        else:
            setattr(owner, name, make(original))

    def _span_wrapper(self, layer: str, name: str, measure):
        call = self.call

        def make(fn):
            def wrapper(*args, **kwargs):
                return call(layer, name, fn, args, kwargs, measure)

            return wrapper

        return make

    def install(self) -> None:
        for layer, entries in LAYERS.items():
            for owner, names, measure in entries:
                for name in names:
                    self._replace(owner, name, self._span_wrapper(layer, name, measure))
        for cls in self.handler_classes:
            self._replace(cls, "handle", self._span_wrapper("chirp.server", "handle", None))
        self._replace(ReadCache, "invalidate_paths", self._scan_counter)
        self._replace(TracingInterceptor, "__call__", self._telemetry_wrapper)
        self._replace(IdentityBox, "spawn", self._sim_window)

    def uninstall(self) -> None:
        while self.replaced:
            owner, name, original = self.replaced.pop()
            setattr(owner, name, original)

    def _scan_counter(self, wrapped):
        """Count the entries each path invalidation scans (all of them)."""

        def wrapper(cache, paths):
            self.layers["core.pipeline.cache"].amount += len(cache)
            return wrapped(cache, paths)

        return wrapper

    def _telemetry_wrapper(self, fn):
        """The telemetry interceptor runs the rest of the chain inside its
        own call; that remainder is pipeline work, not telemetry work."""
        call = self.call

        def wrapper(interceptor, op, ctx, proceed):
            def rest():
                return call("core.pipeline", "chain", proceed, (), {})

            return call("core.telemetry", "__call__", fn, (interceptor, op, ctx, rest), {})

        return wrapper

    def _sim_window(self, fn):
        """Mark where a boxed run's simulated time starts: ``run_app``
        measures from just before ``IdentityBox.spawn``."""

        def wrapper(box, *args, **kwargs):
            clock = box.machine.clock
            self.sim_windows.append((clock, dict(clock.charges)))
            return fn(box, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def self_sum_ns(self) -> int:
        return sum(stats.self_ns for stats in self.layers.values())

    def boxed_charges(self) -> dict[str, int]:
        """Simulated ns per clock category over every boxed run so far,
        each from its ``IdentityBox.spawn`` to the end of its machine's
        clock (nothing charges a run's clock after it completes)."""
        total: dict[str, int] = {}
        for clock, start in self.sim_windows:
            for category, ns in clock.charges.items():
                delta = ns - start.get(category, 0)
                if delta:
                    total[category] = total.get(category, 0) + delta
        return total

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for layer, name, span_id, parent_id, request_id, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": f"{layer}:{name}",
                            "span": span_id,
                            "parent": parent_id,
                            "request": request_id,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
