"""esspath benchmark: one workload, one process, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dims_sweep --seed 1 --seconds 20 --trace 0

Workloads are dims_sweep, verify_a6 and path_queries (see RATIONALE.md).
With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics.  Lines
before it, starting with '#', describe the run for people.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def limit_environment() -> None:
    """One BLAS thread and no disk cache of cell bases, for this process and
    the interpreters it starts.  Must run before numpy loads.

    The matrices here are small: on a 2-core machine a dims_sweep pass took
    6.8 s with one BLAS thread and 8.4 s with two, and one thread leaves the
    run less exposed to other load on the machine."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ESSPATH_CACHE_DIR", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "esspath" / "__init__.py").is_file():
        print(f"error: no esspath package under {src}", file=sys.stderr)
        return 2
    limit_environment()
    sys.path.insert(0, str(src))
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
