"""Recovery-study benchmark of exhaz.

Usage, from the repository root:

    python3 perfbench/run.py --workload moderate-n5000 --seed 1 --seconds 22 --trace 0

Builds nothing: it imports ``exhaz`` from ``src/`` next to this directory.
Standard output holds one JSON object per line: the run metadata, one
record per replicate, a summary, and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics (see bench.py).
BLAS runs on one thread.  Exits with code 2, printing no result, when the
``exhaz`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds", type=float, default=22.0,
        help="nominal run length; sets how many study replicates the run fits",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exhaz" / "__init__.py").is_file():
        print(f"perfbench: no exhaz sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import logging

    import numpy
    import scipy

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    # Fit warnings (non-converged models excluded from M4) are in the records.
    logging.getLogger("exhaz").setLevel(logging.ERROR)

    def emit(obj):
        print(json.dumps(obj), flush=True)

    emit({
        "kind": "meta",
        "workload": args.workload,
        "preset_n_nominal_replicate_s": bench.WORKLOADS[args.workload],
        "panel_indices": bench.panel_indices(args.workload, args.seconds),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "load": "single process, jobs=1, closed loop with one caller",
    })
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), emit)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
