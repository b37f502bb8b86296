"""ropekit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload train-ode --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout: ropekit is imported from ./src.
A summary goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of an untraced run; --trace 1 reports the per-layer
metrics of a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-rope", "train-ode", "eval-long")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ropekit" / "__init__.py").is_file():
        print(f"perfbench: no ropekit sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads: at most the CPUs this process may run on. Set before numpy loads.
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cpus)
    sys.path.insert(0, str(SRC))
    import ropekit
    import workloads

    if not Path(ropekit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported ropekit from {ropekit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    metrics = out.layers if args.trace else workloads.end_to_end(out)
    for err in out.errors:
        print(f"perfbench: CHECK FAILED: {err}", file=sys.stderr)
    loop = out.loop
    print(f"perfbench: {args.workload} seed {args.seed}: {loop.attempted} operations in "
          f"{len(loop.round_s)} rounds, {loop.failed} failed, BLAS threads "
          f"{os.environ['OPENBLAS_NUM_THREADS']}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
