"""bidopt benchmark: one workload per run, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--gen-seed G]

Run from the root of a checkout; the solver is imported from its
``src`` directory.  A run sets up the workload's inputs (median of
three set-ups in fresh interpreters), then repeats passes over the
workload's solves, one at a time in one process, until the next pass
would end after ``--seconds``.  ``--seed`` sets the order of the solves
in each pass; ``--gen-seed`` shifts the generator seeds the instances
come from (default: the workload's own, see README.md).

Each solve follows ``bidopt solve`` in-process: read the instance JSON,
build the model (relaxed to SOS2 in SOS2 modes), set up the engine,
branch and bound, write the solution file.  Only that path is timed,
and its times are scaled by the machine's speed, sampled while the
passes run (speed.py).
Afterwards every solution is read back and verified, proved objectives
are compared with the brute-force oracles, and every pass must repeat
the first one's status, node count and objective exactly.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, and it holds
the per-layer metrics of the traced passes plus the tracing overhead.
Spans are written to ``perfbench/out`` when the run ends.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One client runs one solve at a time, so BLAS gets one thread: the
# bundled OpenBLAS builds allow 64, more than this machine class has.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("scale-sos2-first", "tree-sos1-prove", "suite-many-small"))
    p.add_argument("--seed", type=int, default=0, help="order of solves in a pass")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--gen-seed", type=int, default=None,
                   help="first generator seed (default: the workload's)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bidopt" / "__init__.py").is_file():
        print(f"error: no bidopt sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # numpy reads the thread variables when it is first imported, so the
    # solver and everything importing it load only from here on.
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
