"""The benchmark proper: set-up, timed passes, checks and metrics.

run.py imports this module after it has capped the BLAS threads and put
the checkout's ``src`` first on ``sys.path``; see run.py for usage.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import bidopt
from bidopt import fileio
from bidopt.model import build_model
from bidopt.oracle import enumerate_sos1, enumerate_sos2
from bidopt.search import SearchLimits, branch_and_bound, relax_to_sos2
from bidopt.simplex import SimplexEngine

import workloads
import speed
from spans import RecordingEngine, Tracer, layer_metrics
from stats import median, percentile

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_REPS = 3
SETUP_TIMEOUT_S = 120
ORACLE_REL_TOL = 1e-6
# enumerate_sos2 solves one LP per combination of intervals: 11 s for
# the sweep's 108 instances of up to four campaigns, 28 s more for its
# five-campaign ones (acceptance criterion 2 covers those).  Larger SOS2
# proofs are checked by verify_solution only.
SOS2_ORACLE_MAX_CAMPAIGNS = 4
CRITERION_6A_STATUS = "feasible"
CRITERION_6A_MAX_DEGRADATION_PCT = 5.0

END_TO_END = {
    "pass_s": "s",
    "solves_per_s": "1/s",
    "solve_p50_ms": "ms",
    "solve_p99_ms": "ms",
    "degradation_pct": "%",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "generate.s": "s",
    "model.build_s": "s",
    "model.rows": "count",
    "model.columns": "count",
    "model.nnz": "count",
    "simplex.setup_s": "s",
    "simplex.root_s": "s",
    "simplex.root_iters": "count",
    "simplex.root_ms_per_iter": "ms",
    "simplex.solves": "count",
    "simplex.busy_s": "s",
    "simplex.iters": "count",
    "simplex.iters_per_solve": "count",
    "simplex.ms_per_iter": "ms",
    "simplex.warm_share": "ratio",
    "simplex.infeasible_share": "ratio",
    "simplex.limit_count": "count",
    "search.s": "s",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.node_lp_ms": "ms",
    "search.self_ms_per_node": "ms",
    "search.fixing_s": "s",
    "search.fixing_solves": "count",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.verify_s": "s",
    "trace.overhead_s": "s",
    "wall.pass_s": "s",
    "wall.setup_s": "s",
    "speed.kernel_ms": "ms",
    "speed.slowdown": "ratio",
}


@dataclass
class Outcome:
    """What one solve of one pass produced, and whether it failed.

    ``start`` and ``end`` bound the timed path; ``seconds`` is that
    interval scaled to the nominal speed and ``wall_s`` the same without
    scaling, both less the speed samples taken inside it."""

    key: str
    start: float | None = None
    end: float | None = None
    seconds: float | None = None
    wall_s: float | None = None
    status: str | None = None
    nodes: int | None = None
    objective: float | None = None
    degradation_pct: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def exact(self) -> tuple:
        return (self.status, self.nodes, self.objective)


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    spans: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes if o.seconds is not None)


# -- environment and set-up ---------------------------------------------


def _openblas_builds() -> list[dict]:
    """Configuration and thread count of each OpenBLAS numpy and scipy bundle."""
    out = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            info = {"package": pkg.__name__, "library": Path(path).name}
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["config"] = get_config().decode()
                info["threads"] = get_threads()
                break
            out.append(info)
    return out


def environment(blas_threads: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_builds(),
        "blas_threads_cap": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def set_up(workload: str, gen_seed: int, work_dir: Path) -> list[dict]:
    """SETUP_REPS set-ups of the inputs, each in a fresh interpreter."""
    reps = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), workload,
             str(gen_seed), str(work_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        reps.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return reps


# -- one solve ----------------------------------------------------------


def _no_span(name, **attrs):
    return nullcontext()


def solve_once(path: str, mode: workloads.Mode, out_path: str, tracer: Tracer | None):
    """The timed path of one solve, as ``bidopt solve`` runs it.

    Returns (start, end, report, solution text).
    """
    span = tracer.span if tracer is not None else _no_span
    t0 = time.perf_counter()
    with span("solve"):
        with span("fileio.read"):
            instance = fileio.read_instance(path)
        with span("model.build") as build_span:
            model = build_model(instance)
            if mode.sos == 2:
                model = relax_to_sos2(model)
        with span("simplex.setup"):
            engine = SimplexEngine(model)
        if tracer is not None:
            engine = RecordingEngine(engine, tracer)
        limits = SearchLimits(first_solution=not mode.prove)
        with span("search.branch_and_bound") as search_span:
            report, values = branch_and_bound(
                model, mode.strategy, limits, engine=engine
            )
        with span("fileio.write"):
            text = fileio.write_solution(report, values, model)
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    t1 = time.perf_counter()
    if tracer is not None:
        build_span.attrs.update(
            rows=len(model.rows),
            columns=len(model.columns),
            nnz=sum(len(r.coeffs) for r in model.rows),
        )
        search_span.attrs["nodes"] = report.nodes
    return t0, t1, report, text


def check(outcome: Outcome, workload, instance, mode, report, text, oracle, tracer):
    """Verify one solve after its timed path; failures go to ``problems``."""
    span = tracer.span if tracer is not None else _no_span
    outcome.status = report.status
    outcome.nodes = report.nodes
    outcome.objective = report.incumbent_objective
    outcome.degradation_pct = report.degradation_pct
    if report.status == "limit":
        outcome.problems.append("status limit")
    if report.incumbent_objective is None:
        outcome.problems.append("no incumbent")
        return
    with span("fileio.verify"):
        columns = fileio.read_solution(text)["columns"]
        violations = fileio.verify_solution(instance, columns, sos_type=mode.sos)
    outcome.problems.extend(violations[:3])
    if oracle is not None:
        rel = abs(report.incumbent_objective - oracle) / max(1.0, abs(oracle))
        if rel > ORACLE_REL_TOL:
            outcome.problems.append(f"objective {report.incumbent_objective!r} vs oracle {oracle!r}")
    if workload.criterion_6a and not (
        report.status == CRITERION_6A_STATUS
        and report.degradation_pct is not None
        and report.degradation_pct < CRITERION_6A_MAX_DEGRADATION_PCT
    ):
        outcome.problems.append(
            f"criterion 6a: status {report.status}, degradation {report.degradation_pct}"
        )


# -- a run --------------------------------------------------------------


def oracle_objectives(workload, instances) -> dict[str, float]:
    """Brute-force optimum for every proved solve the oracles can reach."""
    out = {}
    for number, inst in enumerate(instances):
        for mode in workload.modes:
            if not (workload.oracle and mode.prove):
                continue
            if mode.sos == 1:
                out[f"{number}/{mode.label}"] = enumerate_sos1(inst)[0]
            elif len(inst.campaigns) <= SOS2_ORACLE_MAX_CAMPAIGNS:
                out[f"{number}/{mode.label}"] = enumerate_sos2(inst)[0]
    return out


def run_pass(workload, jobs, instances, work_dir, oracle, tracer) -> Pass:
    outcomes = []
    sol_dir = work_dir / "solutions"
    sol_dir.mkdir(parents=True, exist_ok=True)
    for request, (number, mode) in enumerate(jobs):
        key = f"{number}/{mode.label}"
        outcome = Outcome(key)
        outcomes.append(outcome)
        if tracer is not None:
            tracer.request = request
        try:
            outcome.start, outcome.end, report, text = solve_once(
                workloads.instance_path(str(work_dir), number), mode,
                str(sol_dir / f"{number:03d}-{mode.label}.sol"), tracer,
            )
            check(outcome, workload, instances[number], mode, report, text,
                  oracle.get(key), tracer)
        except Exception as exc:  # a failed solve is counted, the run goes on
            outcome.start = outcome.end = None
            outcome.problems.append(f"{type(exc).__name__}: {exc}")
    return Pass(tracer is not None, outcomes, tracer.spans if tracer else [])


def scale_times(passes: list[Pass], meter: speed.Speedometer) -> None:
    """Fill in each timed solve's scaled and wall seconds."""
    for p in passes:
        for o in p.outcomes:
            if o.start is not None:
                o.seconds = meter.scaled(o.start, o.end)
                o.wall_s = o.end - o.start - meter.paused(o.start, o.end)


def solve_medians(passes: list[Pass], attr: str = "seconds") -> dict[str, float]:
    """Each solve's median time over the passes it succeeded in.

    A pass that met the first call of a code path or a burst of work
    from outside is shed by the median.
    """
    times: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            if getattr(o, attr) is not None:
                times.setdefault(o.key, []).append(getattr(o, attr))
    return {key: median(ts) for key, ts in times.items()}


def end_to_end(workload, passes: list[Pass], setup_s: float) -> dict[str, tuple]:
    """Metric name -> (value, sample count) over the untraced passes."""
    plain = [p for p in passes if not p.traced]
    solves = solve_medians(plain)
    pass_s = math.fsum(solves.values())
    p50, _ = percentile(solves.values(), 50)
    p99, beyond = percentile(solves.values(), 99)
    first_modes = {m.label for m in workload.modes if not m.prove}
    degr = [
        o.degradation_pct
        for o in plain[0].outcomes
        if o.degradation_pct is not None
        and (not first_modes or o.key.split("/")[1] in first_modes)
    ]
    per_solve = f"{len(solves)} solves x {len(plain)} passes"
    return {
        "pass_s": (pass_s, per_solve),
        "solves_per_s": (len(solves) / pass_s, per_solve),
        "solve_p50_ms": (1000.0 * p50, per_solve),
        "solve_p99_ms": (1000.0 * p99, f"{per_solve}, {beyond} solves above"),
        "degradation_pct": (math.fsum(degr) / len(degr), len(degr)),
        "setup_s": (setup_s, SETUP_REPS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(passes: list[Pass], setups: list[dict], meter: speed.Speedometer) -> dict[str, tuple]:
    """Metric name -> (value, sample count): medians over the traced passes."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    by_pass = [layer_metrics(p.spans) for p in traced]
    out = {
        "setup.import_s": (median([s["import_s"] for s in setups]), len(setups)),
        "generate.s": (median([s["generate_s"] for s in setups]), len(setups)),
    }
    for name in by_pass[0]:
        out[name] = (median([m[name] for m in by_pass]), len(by_pass))
    overhead = math.fsum(solve_medians(traced).values()) - math.fsum(
        solve_medians(plain).values()
    )
    out["trace.overhead_s"] = (overhead, f"{len(traced)} traced, {len(plain)} untraced")
    wall = solve_medians(plain, "wall_s")
    out["wall.pass_s"] = (math.fsum(wall.values()), f"{len(wall)} solves x {len(plain)} passes")
    out["wall.setup_s"] = (median([s["wall_s"] for s in setups]), len(setups))
    out["speed.kernel_ms"] = (1000.0 * median(meter.durations), len(meter.durations))
    out["speed.slowdown"] = (
        math.fsum(meter.durations) / len(meter.durations) / speed.NOMINAL_S,
        len(meter.durations),
    )
    return out


def run(args, blas_threads: int) -> int:
    workload = workloads.WORKLOADS[args.workload]
    gen_seed = workload.default_gen_seed if args.gen_seed is None else args.gen_seed
    env = environment(blas_threads)
    work_dir = OUT / f"{workload.name}-gen{gen_seed}"

    setups = set_up(workload.name, gen_seed, work_dir)
    setup_s = median([s["setup_s"] for s in setups])
    instances = [
        fileio.read_instance(workloads.instance_path(str(work_dir), n))
        for n in range(setups[0]["instances"])
    ]
    oracle = oracle_objectives(workload, instances)

    jobs = [(n, mode) for n in range(len(instances)) for mode in workload.modes]
    order = random.Random(args.seed)
    passes: list[Pass] = []
    min_passes = 2 if args.trace else 1
    start = time.perf_counter()
    longest = 0.0
    with speed.Speedometer(kernel=speed.make_solver_kernel()) as meter:
        while True:
            t0 = time.perf_counter()
            order.shuffle(jobs)
            tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
            passes.append(run_pass(workload, jobs, instances, work_dir, oracle, tracer))
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + longest > args.seconds:
                break
    scale_times(passes, meter)

    # Every pass must repeat the first one's results exactly.
    first = {o.key: o.exact for o in passes[0].outcomes}
    mismatch = [
        o.key for p in passes[1:] for o in p.outcomes if o.exact != first[o.key]
    ]
    digests = {s["digest"] for s in setups}
    failed = [o for p in passes for o in p.outcomes if o.problems]
    correct = not failed and not mismatch and len(digests) == 1
    if all(o.start is None for p in passes for o in p.outcomes):
        print(f"error: every solve failed: {failed[0].problems}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(passes, setups, meter)
        units = PER_LAYER_UNITS
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{workload.name}-gen{gen_seed}-seed{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as fh:
            for n, p in enumerate(passes):
                for sp in p.spans:
                    fh.write(json.dumps({"pass": n, **sp.as_dict()}) + "\n")
    else:
        metrics = end_to_end(workload, passes, setup_s)
        units = END_TO_END

    nodes = [sum(o.nodes or 0 for o in p.outcomes) for p in passes]
    objective_sum = math.fsum(o.objective or 0.0 for o in passes[0].outcomes)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "gen_seed": gen_seed,
        "default_gen_seed": workload.default_gen_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "bidopt": str(Path(bidopt.__file__).parent),
        "passes": [{"traced": p.traced, "seconds": p.seconds} for p in passes],
        "speed_samples": len(meter.durations),
        "wall_pass_s": math.fsum(solve_medians([p for p in passes if not p.traced], "wall_s").values()),
        "nodes_per_pass": nodes[0],
        "objective_sum": objective_sum,
        "setups": setups,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "failures": [{"key": o.key, "problems": o.problems} for o in failed],
        "mismatch": mismatch,
        "solves": [
            {"key": o.key, "status": o.status, "nodes": o.nodes,
             "objective": o.objective, "degradation_pct": o.degradation_pct}
            for o in sorted(passes[0].outcomes, key=lambda o: o.key)
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    result_file = OUT / f"result-{workload.name}-gen{gen_seed}-seed{args.seed}-trace{args.trace}.json"
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  gen-seed {gen_seed} "
          f"(default {workload.default_gen_seed})  passes {len(passes)}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  blas threads "
          + ", ".join(f"{b['package']}={b.get('threads')}" for b in env["openblas"]))
    for b in env["openblas"]:
        print(f"  {b['package']} {b.get('config', b['library'])}")
    print(f"nodes per pass {nodes[0]}  objective sum {objective_sum!r}  "
          f"solves {sum(len(p.outcomes) for p in passes)}  failed {len(failed)}  "
          f"mismatched {len(mismatch)}")
    for o in failed[:5]:
        print(f"  FAILED {o.key}: {'; '.join(o.problems)}")
    for name, (value, n) in metrics.items():
        print(f"  {name:26s} {value:14.6f} {units[name]:6s} n={n}")
    if args.trace:
        search_s = metrics["search.s"][0]
        print(f"split: root LP {metrics['simplex.root_s'][0] / search_s:.1%} and all LP "
              f"solves {metrics['simplex.busy_s'][0] / search_s:.1%} of search.s")
    print(f"details: {result_file.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0
