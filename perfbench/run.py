"""phasetv benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-512 --seed 3 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every process the benchmark starts inherits these: one BLAS/OpenMP
# thread, and the phasetv sources of this checkout.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the closed loop measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: traced run with per-layer metrics")
    p.add_argument("--size", type=int,
                   help="shrink the workload to SIZE x SIZE (self-test; no rmse ceiling)")
    p.add_argument("--sweeps", type=int, help="sweep count with --size")
    p.add_argument("--golden", choices=("write",),
                   help="store this run's output as the golden output of the default seed")
    args = p.parse_args(argv)
    if (args.size is None) != (args.sweeps is None):
        p.error("--size and --sweeps go together")
    if args.size is not None and (args.size < 8 or args.sweeps < 1):
        p.error("--size must be at least 8 and --sweeps at least 1")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phasetv" / "__init__.py").is_file():
        print(f"error: phasetv sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))

    import harness  # after the thread pinning, which numpy reads on import

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
