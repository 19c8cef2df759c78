"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3,4,5] [--trace 0]

Runs ``run.py`` once per seed, one run at a time, with BENCHMARK.json's
``run_seconds``, then prints for every metric the median of the runs
and the distance between the first and third quartile as a share of
that median, next to a third of the metric's bound.  Every run's last
line is appended to ``perfbench/out/spread-WORKLOAD.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    runs = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({time.perf_counter() - t0:.0f} s)", flush=True)

    print(f"{'metric':26s} {'median':>14s} {'IQR/median':>11s} {'bound/3':>8s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        bound = bounds.get(name)
        third = f"{bound / 3:.4f}" if bound else "-"
        print(f"{name:26s} {median(values):14.6f} {spread:11.4f} {third:>8s}")
    return 0 if all(r["correct"] and r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
