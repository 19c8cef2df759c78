"""One set-up of a workload's inputs, timed inside a fresh interpreter.

    python3 perfbench/setup_inputs.py WORKLOAD GEN_SEED WORK_DIR

Times the import of bidopt (with numpy and scipy), the generation of the
workload's instances and the writing of their JSON files into WORK_DIR,
and prints the times and a digest of the files as one JSON line.  Each
time is scaled to the nominal speed by a speedometer (speed.py) that
runs from before the first import; ``wall_s`` is the unscaled total.
run.py starts this several times per run and reports the median of
``setup_s`` as ``setup_s``.
"""

import time

import speed  # standard library only: it runs before the imports it times

_METER = speed.Speedometer().__enter__()
_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports bidopt, numpy and scipy)

_T1 = time.perf_counter()


def main(argv: list[str]) -> int:
    name, gen_seed, work_dir = argv[1], int(argv[2]), argv[3]
    try:
        instances = workloads.generate(name, gen_seed)
        t2 = time.perf_counter()
        digest = workloads.write_instances(instances, work_dir)
        t3 = time.perf_counter()
    finally:
        _METER.__exit__(None, None, None)
    print(json.dumps({
        "import_s": _METER.scaled(_T0, _T1),
        "generate_s": _METER.scaled(_T1, t2),
        "write_s": _METER.scaled(t2, t3),
        "setup_s": _METER.scaled(_T0, t3),
        "wall_s": t3 - _T0 - _METER.paused(_T0, t3),
        "instances": len(instances),
        "digest": digest,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
