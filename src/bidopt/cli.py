"""Command line driver.

Subcommands: generate, solve, oracle, convert, bench.  Exit codes:
0 success, 1 infeasible, 2 limit hit without an incumbent, 3 input
error (a usage error too), 4 numerical failure (a singular basis or an
unblocked phase 1 in the simplex, or an LP relaxation reported
unbounded).

The tolerances are the constants of the modules that use them
(``simplex.FEAS_TOL``/``OPT_TOL``, ``search.ZERO_TOL``/``NEAR_ONE_TOL``/
``RC_TOL``); only the branch-and-bound pruning gap is set per run, with
--gap.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from . import fileio, search
from .generate import CURVE_SHAPES, GenParams, generate_instance
from .model import build_model

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_LIMIT = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


# Admissible ranges: (description, predicate).  NaN fails every predicate.
_NONNEGATIVE = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0)
_COUNT = (">= 0", lambda v: v >= 0)


def _check_range(name: str, value: float, admissible) -> float:
    what, ok = admissible
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _count_or_range(raw: str):
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return (int(lo), int(hi))
    return int(raw)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--first-solution", dest="first_solution",
                      action="store_true", default=True,
                      help="stop at the first feasible solution (default)")
    stop.add_argument("--prove", dest="first_solution", action="store_false",
                      help="search to the gap / limits")
    p.add_argument("--time-limit", type=float, metavar="S", default=None)
    p.add_argument("--node-limit", type=int, metavar="N", default=None)
    p.add_argument("--gap", type=float, default=None,
                   help="relative pruning gap (default 1e-4)")
    p.add_argument("--omit-timing", action="store_true",
                   help="write '-' for timing fields (byte-stable output)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors.  Its
    subparsers are made from its class, so theirs are too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bidopt",
        description="Bid-level optimization: generate, solve, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance JSON")
    g.add_argument("--businesses", type=int, default=1)
    g.add_argument("--campaigns", type=_count_or_range, default=10,
                   metavar="N|A:B", help="campaigns per business")
    g.add_argument("--levels", type=_count_or_range, default=4,
                   metavar="N|A:B", help="bid levels per campaign (plus slack)")
    g.add_argument("--budget-tightness", type=float, default=0.7)
    g.add_argument("--impression-tightness", type=float, default=1.5)
    g.add_argument("--curve-shape", choices=CURVE_SHAPES, default="uniform")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default=None)

    s = sub.add_parser("solve", help="branch and bound on an instance JSON")
    s.add_argument("instance")
    s.add_argument("--sos", type=int, choices=(1, 2), default=1)
    s.add_argument("--strategy", choices=search.STRATEGIES, default="none")
    _add_limit_flags(s)
    s.add_argument("--mps-out", default=None, help="also write the model as MPS")
    s.add_argument("-o", "--output", default=None, help="solution file path")

    o = sub.add_parser("oracle", help="brute-force optimum of a small instance")
    o.add_argument("instance")
    o.add_argument("--sos", type=int, choices=(1, 2), default=1)
    o.add_argument("-o", "--output", default=None)

    c = sub.add_parser("convert", help="instance JSON <-> model MPS")
    c.add_argument("input")
    c.add_argument("-o", "--output", default=None)

    b = sub.add_parser("bench", help="solve instances x strategies, emit CSV")
    b.add_argument("instances", nargs="+", metavar="INSTANCE")
    b.add_argument("--strategies", default="1,2,3",
                   help="comma list from {none,1,2,3} (default 1,2,3)")
    _add_limit_flags(b)
    b.add_argument("-o", "--output", default=None)
    return parser


def _cmd_generate(args) -> int:
    params = GenParams(
        businesses=args.businesses,
        campaigns_per_business=args.campaigns,
        levels_per_campaign=args.levels,
        budget_tightness=args.budget_tightness,
        impression_tightness=args.impression_tightness,
        curve_shape=args.curve_shape,
        seed=args.seed,
    )
    _emit(fileio.instance_to_json(generate_instance(params)), args.output)
    return EXIT_OK


def _limits_from(args) -> search.SearchLimits:
    gap = search.GAP if args.gap is None else _check_range("--gap", args.gap, _NONNEGATIVE)
    if args.time_limit is not None:
        _check_range("--time-limit", args.time_limit, _NONNEGATIVE)
    if args.node_limit is not None:
        _check_range("--node-limit", args.node_limit, _COUNT)
    return search.SearchLimits(
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        gap=gap,
        first_solution=args.first_solution,
    )


def _cmd_solve(args) -> int:
    if args.strategy == "3" and args.sos != 2:
        raise ValueError("strategy 3 needs the SOS2 relaxation; pass --sos 2")
    instance = fileio.read_instance(args.instance)
    model = build_model(instance)
    if args.sos == 2:
        model = search.relax_to_sos2(model)
    if args.mps_out:
        _emit(fileio.write_mps(model), args.mps_out)

    report, values = search.branch_and_bound(model, args.strategy, _limits_from(args))
    _emit(
        fileio.write_solution(report, values, model, omit_timing=args.omit_timing),
        args.output,
    )
    if report.status == "infeasible":
        print("instance infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if values is None:
        print("limit reached without a feasible solution", file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # Imported here so the other commands never load scipy.optimize.
    from .oracle import enumerate_sos1, enumerate_sos2

    instance = fileio.read_instance(args.instance)
    lines: list[str] = []
    if args.sos == 1:
        obj, levels = enumerate_sos1(instance)
        lines.append(f"OBJECTIVE {obj:.12f}")
        for cid in sorted(levels):
            lines.append(f"LEVEL {cid} {levels[cid]}")
    else:
        obj, patterns = enumerate_sos2(instance)
        lines.append(f"OBJECTIVE {obj:.12f}")
        for cid in sorted(patterns):
            levels, weights = patterns[cid]
            pair = " ".join(str(j) for j in levels)
            mix = " ".join(f"{w:.12f}" for w in weights)
            lines.append(f"PATTERN {cid} {pair} {mix}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_convert(args) -> int:
    path = args.input.lower()
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        model = build_model(fileio.instance_from_json(text))
        _emit(fileio.write_mps(model), args.output)
    elif path.endswith(".mps"):
        instance = fileio.model_to_instance(fileio.read_mps(text))
        _emit(fileio.instance_to_json(instance), args.output)
    else:
        raise ValueError("convert needs a .json or .mps input")
    return EXIT_OK


CSV_COLUMNS = (
    "model",
    "sos_count",
    "strategy",
    "degradation_pct",
    "first_solution_seconds",
    "best_known_degradation_pct",
)


def run_benchmark(
    instances,
    strategies=("1", "2", "3"),
    limits: search.SearchLimits = search.SearchLimits(),
    omit_timing: bool = False,
) -> str:
    """One CSV row per (instance, strategy).

    Each run solves as ``bidopt solve`` does.  Strategies none/1/2 run
    on the SOS1 model, strategy 3 on the SOS2 relaxation.  Degradations
    print with three decimals; a limit hit without an incumbent renders
    the degradation columns as ????.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)

    def deg(x):
        return "????" if x is None else f"{x:.3f}"

    for number, instance in enumerate(instances, start=1):
        base = build_model(instance)
        for strat in strategies:
            model = search.relax_to_sos2(base) if strat == "3" else base
            report, _ = search.branch_and_bound(model, strat, limits)
            if omit_timing:
                secs = "-"
            elif report.first_solution_seconds is None:
                secs = "????"
            else:
                secs = f"{report.first_solution_seconds:.3f}"
            writer.writerow(
                [
                    number,
                    len(model.sos_names),
                    strat,
                    deg(report.first_solution_degradation_pct),
                    secs,
                    deg(report.degradation_pct),
                ]
            )
    return buf.getvalue()


def _cmd_bench(args) -> int:
    limits = _limits_from(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in search.STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    instances = [fileio.read_instance(p) for p in args.instances]
    _emit(run_benchmark(instances, strategies, limits, args.omit_timing), args.output)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "convert": _cmd_convert,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
