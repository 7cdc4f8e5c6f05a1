"""Run one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload chirp_read --seed 1 --seconds 10 --trace 0

Runs from any directory; the repository root is two levels up from this
file and the program is imported from its ``src/``.  The last line of
standard output is the result as one JSON object::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer split for
``--trace 1``.  The line before it holds the full record (raw values,
digest, simulated time).  Every ``REPRO_*`` variable is removed from the
environment before the program is imported, so no knob changes what is
measured.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # replace this script's directory: its module names must not shadow others
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.harness import cli

    return cli()


if __name__ == "__main__":
    sys.exit(main())
