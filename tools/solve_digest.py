"""Digests of every answer the benchmark's workloads give, to show that a
change to the solver leaves them the same, bit for bit.

    python3 tools/solve_digest.py [--workload NAME ...] [--gen-seed G]

Run from any directory; the solver is imported from the checkout's
``src`` and the workloads from ``perfbench/workloads.py``.  Each named
workload (default: all three) is generated at its default generator
seed, or from generator seed G on, as ``perfbench/run.py --gen-seed``
moves it: a change can then be compared bit for bit with its parent on
instances no pinned digest covers.  Every instance and solve mode goes
through the benchmark's timed path: ``read_instance``, ``build_model``
(relaxed to SOS2 in SOS2 modes), ``SimplexEngine``, ``branch_and_bound``
and ``write_solution`` without its timing line.  Four SHA-256 digests
are printed, one line each with the count of what it covers:

    solutions  every LpSolution a search receives: status (UTF-8),
               objective (<d), primal and, when present, reduced costs
               (<Nd), iterations (<q) and the basis bytes
    masters    every solve nested inside another solve (the Lagrangian
               estimate's master LPs): status, primal, iterations, basis
    files      every solution file
    instances  every instance JSON file, as ``workloads.write_instances``
               writes and digests it
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import BLAS_THREADS, THREAD_VARS  # noqa: E402  (perfbench/run.py)

# numpy reads the thread variables when it is first imported
for var in THREAD_VARS:
    os.environ[var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (perfbench/workloads.py)
from bidopt import fileio, simplex  # noqa: E402
from bidopt.model import build_model  # noqa: E402
from bidopt.search import SearchLimits, branch_and_bound, relax_to_sos2  # noqa: E402


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, *parts: bytes) -> None:
        for part in parts:
            self.sha.update(part)
        self.count += 1


def _floats(values: np.ndarray) -> bytes:
    """The values as little-endian doubles, as ``struct.pack("<Nd")`` gives them."""
    return values.astype("<f8", copy=False).tobytes()


def digest_workloads(names: list[str], gen_seed: int | None = None) -> dict[str, Digest]:
    digests = {key: Digest() for key in ("solutions", "masters", "files", "instances")}
    solve = simplex.SimplexEngine.solve
    depth = 0

    def recorded(self, *args, **kwargs):
        nonlocal depth
        depth += 1
        try:
            sol = solve(self, *args, **kwargs)
        finally:
            depth -= 1
        status, primal = sol.status.encode(), _floats(sol.primal)
        iterations = struct.pack("<q", sol.iterations)
        if depth:
            digests["masters"].add(status, primal, iterations, sol.basis)
        else:
            reduced = b"" if sol.reduced_costs is None else _floats(sol.reduced_costs)
            digests["solutions"].add(
                status, struct.pack("<d", sol.objective), primal, reduced, iterations, sol.basis
            )
        return sol

    simplex.SimplexEngine.solve = recorded
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            seed = workload.default_gen_seed if gen_seed is None else gen_seed
            instances = workloads.generate(name, seed)
            with tempfile.TemporaryDirectory() as work_dir:
                workloads.write_instances(instances, work_dir)
                for number in range(len(instances)):
                    path = workloads.instance_path(work_dir, number)
                    digests["instances"].add(Path(path).read_bytes())
                    for mode in workload.modes:
                        instance = fileio.read_instance(path)
                        model = build_model(instance)
                        if mode.sos == 2:
                            model = relax_to_sos2(model)
                        engine = simplex.SimplexEngine(model)
                        report, values = branch_and_bound(
                            model, mode.strategy,
                            SearchLimits(first_solution=not mode.prove), engine=engine,
                        )
                        text = fileio.write_solution(report, values, model, omit_timing=True)
                        digests["files"].add(text.encode())
    finally:
        simplex.SimplexEngine.solve = solve
    return digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=tuple(workloads.WORKLOADS),
                   help="a workload to run; repeat for more (default: all)")
    p.add_argument("--gen-seed", type=int, default=None,
                   help="first generator seed (default: each workload's own)")
    args = p.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    for key, digest in digest_workloads(names, args.gen_seed).items():
        print(f"{key} {digest.count} {digest.sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
