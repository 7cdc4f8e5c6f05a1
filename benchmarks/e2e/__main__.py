"""Run every workload of the end-to-end benchmark, one process each.

    PYTHONPATH=src python -m benchmarks.e2e                 # all five, untraced
    PYTHONPATH=src python -m benchmarks.e2e --trace         # per-layer split
    PYTHONPATH=src python -m benchmarks.e2e --check-repeat  # two sets, compared
    PYTHONPATH=src python -m benchmarks.e2e --out results.json

Each workload runs in its own ``run.py`` process, one at a time, with
every ``REPRO_*`` variable removed from its environment, so peak memory
and module-level caches never carry over from one workload to the next.
Workload names, metric bounds and the default run length come from
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def run_one(workload: str, args: argparse.Namespace) -> tuple[dict, str]:
    """One workload in a fresh process: (detail record, report text)."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if args.trace else "0",
    ]
    if args.smoke:
        command.append("--smoke")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), "\n".join(lines[:-2])


def run_set(args: argparse.Namespace) -> dict[str, dict]:
    details = {}
    for workload in args.workload or WORKLOADS:
        detail, report = run_one(workload, args)
        print(report, flush=True)
        details[workload] = detail
    return details


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def compare(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """Print both sets per (workload, metric); True when all agree within
    the metric's bound."""
    agree = True
    print(f"\n{'workload':<16}{'metric':<14}{'first':>14}{'second':>14}{'diff':>9}{'bound':>8}")
    for workload, detail in first.items():
        for metric, entry in detail["metrics"].items():
            a, b = entry["value"], second[workload]["metrics"][metric]["value"]
            diff = (b - a) / a
            bound = BOUNDS[metric]["bound"]
            ok = abs(diff) <= bound
            agree &= ok
            print(
                f"{workload:<16}{metric:<14}{a:>14.4f}{b:>14.4f}"
                f"{100 * diff:>8.2f}%{100 * bound:>7.0f}%{'' if ok else '  EXCEEDS'}"
            )
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="report the per-layer split")
    parser.add_argument("--smoke", action="store_true", help="one short round each (tests)")
    parser.add_argument("--check-repeat", action="store_true", help="run two sets and compare")
    parser.add_argument("--out", help="write every record to this JSON file")
    args = parser.parse_args()
    sets = [run_set(args)]
    agree = True
    if args.check_repeat:
        sets.append(run_set(args))
        agree = compare(*sets)
    if args.out:
        record = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "sets": sets,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
