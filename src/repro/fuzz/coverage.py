"""The coverage signal: behavioral edges read off existing telemetry.

No new instrumentation sits on the hot path.  The pipeline's
:class:`~repro.core.telemetry.TracingInterceptor` already counts every
operation's outcome as a ``pipeline.outcomes{surface,op,status}``
counter, and the fault layer counts every injected fault in a
``fault.<kind>`` counter (:meth:`~repro.net.faults.FaultPlan.bind_telemetry`).
This module just projects those counters into a set of *edge strings*:

* ``<surface>|<stage>|<op>|<status>|x<bucket>`` — which interceptor
  stage resolved which op with which errno, and *how hard* the run
  leaned on it (count, log2-bucketed).  The stage is recovered from the
  status post-hoc: the interceptor chain is fixed (identity gate →
  admission → ACL guard → reference monitor → handler) and each stage owns
  its errnos, so no per-stage counters are needed.  The bucket makes
  repetition a behavior in its own right — one denied unlink and a
  hammering loop of them stress different machinery (caches, fd tables,
  admission) — without making every raw count a new edge.
* ``fault|<kind>|x<bucket>`` — a fault kind fired, count bucketed the
  same way: "one drop" and "a storm of drops" are different weathers.
* ``seq|…`` — consecutive pairs and triples in the span record
  (:attr:`Telemetry.spans` keeps every finished operation span in
  completion order).  Sequencing is where the stateful bugs live — an
  unlink *after* a successful open exercises different code than the
  same two ops reversed — and the n-gram spaces are quadratic/cubic in
  the op menu, so they stay long-tailed instead of saturating: reaching
  deep windows requires long, structured runs, which is precisely what
  corpus retention compounds and independent shallow sampling cannot.

Edges deliberately exclude the acting identity: identity strings are a
*mutation* dimension, and folding them into edges would reward the
fuzzer for trivially renaming itself instead of reaching new machinery.
"""

from __future__ import annotations

from typing import Iterable

#: Errnos owned by each fixed pipeline stage (everything else reaches the
#: handler).  EACCES/EPERM are the reference monitor's refusals (the ACL
#: file guard shares EACCES — same enforcement layer), EAGAIN is
#: :class:`~repro.core.pipeline.Admission` refusing (labelled ``breaker``,
#: its old name, so the edge set stays put), ENOSYS is the registry
#: missing an op.
_STAGE_BY_STATUS = {
    "ok": "handler",
    "EACCES": "monitor",
    "EPERM": "monitor",
    "EAGAIN": "breaker",
    "ENOSYS": "registry",
}


def stage_for_status(status: str) -> str:
    """Which interceptor stage produced this outcome status."""
    return _STAGE_BY_STATUS.get(status, "handler")


def _log_bucket(count: int) -> int:
    """1,2 → 1; 3-4 → 2; 5-8 → 3 ... (log2 of the count, rounded up)."""
    return max(1, (count - 1).bit_length())


def coverage_edges(telemetry) -> set[str]:
    """Project one run's telemetry counters into its coverage-edge set."""
    edges: set[str] = set()
    for (name, label_key), count in telemetry.counters.items():
        if count <= 0:
            continue
        if name == "pipeline.outcomes":
            labels = dict(label_key)
            status = str(labels.get("status", "ok"))
            edges.add(
                "|".join(
                    (
                        str(labels.get("surface", "?")),
                        stage_for_status(status),
                        str(labels.get("op", "?")),
                        status,
                        f"x{_log_bucket(count)}",
                    )
                )
            )
        elif name.startswith("fault."):
            edges.add(f"fault|{name[len('fault.'):]}|x{_log_bucket(count)}")
        elif name.startswith("fastlane."):
            # the fast lane's cache hits/invalidations/flushes are genuine
            # behavioral states (a hit is a *skipped* monitor walk), so a
            # scenario that exercises them differently is new coverage
            edges.add(f"fastlane|{name[len('fastlane.'):]}|x{_log_bucket(count)}")
    steps = [
        f"{span.name}:{span.status}"
        for span in getattr(telemetry, "spans", ())
    ]
    for left, right in zip(steps, steps[1:]):
        edges.add(f"seq|{left}>{right}")
    for a, b, c in zip(steps, steps[1:], steps[2:]):
        edges.add(f"seq|{a}>{b}>{c}")
    return edges


def merge_edges(into: set[str], new: Iterable[str]) -> set[str]:
    """The genuinely new edges; ``into`` is updated in place."""
    fresh = {edge for edge in new if edge not in into}
    into.update(fresh)
    return fresh
