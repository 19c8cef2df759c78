"""End-to-end gate for the whole package.

Each test covers one release criterion and prints a single
"ACCEPTANCE <n> <name>: PASS/FAIL (<details>)" line.  The suite1
fixture (252 small generated instances) is shared across criteria.
"""

import time

from bidopt.cli import main
from bidopt.fileio import (
    models_structurally_equal,
    read_mps,
    verify_solution,
    write_mps,
)
from bidopt.generate import scale_suite
from bidopt.model import build_model
from bidopt.oracle import enumerate_sos1, enumerate_sos2
from bidopt.search import (
    SearchLimits,
    branch_and_bound,
    relax_to_sos2,
    strategy2_fix,
    strategy3_hotstart,
)
from bidopt.simplex import INFEASIBLE, SimplexEngine

from conftest import make_rollback_instance, make_t1

PROVE = SearchLimits(first_solution=False, gap=0.0)
FIRST = SearchLimits(first_solution=True)


def announce(capsys, number, name, ok, details):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {verdict} ({details})")
    assert ok, f"criterion {number} {name}: {details}"


def columns_as_dict(model, values):
    return {c.name: v for c, v in zip(model.columns, values)}


def test_criterion_1_sos1_oracle_equivalence(suite1, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for inst in suite1:
        report, _ = branch_and_bound(build_model(inst), "none", PROVE)
        obj_oracle, _ = enumerate_sos1(inst)
        rel = abs(report.incumbent_objective - obj_oracle) / max(1.0, abs(obj_oracle))
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and checked >= 200 and elapsed < 60.0
    announce(
        capsys, 1, "sos1-oracle-equivalence", ok,
        f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_sos2_oracle_equivalence(suite1, capsys):
    small = [inst for inst in suite1 if len(inst.campaigns) <= 5]
    worst = 0.0
    for inst in small:
        model = relax_to_sos2(build_model(inst))
        report, _ = branch_and_bound(model, "none", PROVE)
        obj_oracle, _ = enumerate_sos2(inst)
        rel = abs(report.incumbent_objective - obj_oracle) / max(1.0, abs(obj_oracle))
        worst = max(worst, rel)
    ok = worst <= 1e-6 and len(small) >= 100
    announce(
        capsys, 2, "sos2-oracle-equivalence", ok,
        f"{len(small)} instances, worst rel err {worst:.2e}",
    )


def test_criterion_3_relaxation_chain(suite1, capsys):
    worst = 0.0
    for inst in suite1:
        model = build_model(inst)
        lp = SimplexEngine(model).solve().objective
        sos2 = branch_and_bound(relax_to_sos2(model), "none", PROVE)[0].incumbent_objective
        sos1, _ = enumerate_sos1(inst)
        slack = 1e-9 * max(1.0, abs(lp))
        worst = max(worst, sos2 - lp, sos1 - sos2)
        if sos2 > lp + slack or sos1 > sos2 + slack:
            announce(
                capsys, 3, "relaxation-chain", False,
                f"violated on {len(inst.campaigns)}-campaign instance: "
                f"lp={lp} sos2={sos2} sos1={sos1}",
            )
    announce(
        capsys, 3, "relaxation-chain", True,
        f"{len(suite1)} instances, worst gap violation {worst:.2e}",
    )


def test_criterion_4_worked_example(capsys):
    inst = make_t1()
    model = build_model(inst)
    frac = 900.0 / 11.0

    lp = SimplexEngine(model).solve().objective
    report1, _ = branch_and_bound(model, "none", PROVE)
    sos1, deg = report1.incumbent_objective, report1.degradation_pct
    report2, _ = branch_and_bound(relax_to_sos2(model), "none", PROVE)

    model2 = relax_to_sos2(model)
    engine = SimplexEngine(model2)
    _, hot = strategy3_hotstart(model2, engine.solve(), engine)
    hot_deg = 100.0 * (lp - hot.objective) / abs(lp)

    ok = (
        abs(lp - frac) <= 1e-9
        and abs(sos1 - 50.0) <= 1e-9
        and abs(report2.incumbent_objective - frac) <= 1e-9
        and abs(deg - 38.89) <= 0.01
        and abs(hot_deg) <= 1e-9
    )
    announce(
        capsys, 4, "worked-example", ok,
        f"lp={lp:.9f} sos1={sos1:.4f} sos2={report2.incumbent_objective:.9f} "
        f"deg={deg:.4f}% hot-start deg={hot_deg:.1e}%",
    )


def test_criterion_5_heuristic_soundness(suite1, capsys):
    bad = []
    solved = 0
    for n, inst in enumerate(suite1):
        base = build_model(inst)
        for strat in ("1", "2", "3"):
            model = relax_to_sos2(base) if strat == "3" else base
            report, values = branch_and_bound(model, strat, FIRST)
            if values is None:
                continue
            solved += 1
            cols = columns_as_dict(model, values)
            problems = verify_solution(
                inst, cols, sos_type=2 if strat == "3" else 1
            )
            if problems:
                bad.append(f"instance {n} strategy {strat}: {problems[0]}")

    # rollback path: constructed instance where strategy 2 fixing breaks the LP
    rb_model = build_model(make_rollback_instance())
    rb_engine = SimplexEngine(rb_model)
    rb_root = rb_engine.solve()
    rb_fixes = strategy2_fix(rb_model, rb_root)
    rb_trial = rb_engine.solve(bounds=rb_fixes, warm=rb_root.basis)
    rollback_hit = rb_trial.status == INFEASIBLE
    rb_report, rb_values = branch_and_bound(rb_model, "2", PROVE)
    recovered = rb_values is not None and rb_report.status == "optimal"

    ok = not bad and rollback_hit and recovered
    detail = bad[0] if bad else (
        f"{solved} strategy solves all verified; rollback exercised and recovered"
    )
    announce(capsys, 5, "heuristic-soundness", ok, detail)


def test_criterion_6a_scale_2704(scale_base, capsys):
    inst = scale_suite(scale_base, [2704])[0]
    model = relax_to_sos2(build_model(inst))
    t0 = time.perf_counter()
    report, values = branch_and_bound(model, "3", FIRST)
    wall = time.perf_counter() - t0
    ok = (
        values is not None
        and wall < 60.0
        and report.degradation_pct is not None
        and report.degradation_pct < 5.0
    )
    announce(
        capsys, "6a", "scale-2704-campaigns", ok,
        f"first solution {wall:.1f}s, degradation "
        f"{report.degradation_pct:.4f}%, nodes {report.nodes}",
    )


def test_criterion_6b_scale_16259(scale_base, capsys):
    inst = scale_suite(scale_base, [16259])[0]
    model = relax_to_sos2(build_model(inst))
    t0 = time.perf_counter()
    report, values = branch_and_bound(model, "3", FIRST)
    wall = time.perf_counter() - t0
    ok = values is not None and wall < 1200.0
    announce(
        capsys, "6b", "scale-16259-campaigns", ok,
        f"first solution {wall:.1f}s, degradation "
        f"{report.degradation_pct:.4f}%, nodes {report.nodes}",
    )


def test_criterion_7_cli_determinism(tmp_path, capsys):
    inst_path = str(tmp_path / "inst.json")
    code = main(["generate", "--businesses", "2", "--campaigns", "3",
                 "--seed", "77", "-o", inst_path])
    assert code == 0
    first_gen = open(inst_path, "rb").read()
    code = main(["generate", "--businesses", "2", "--campaigns", "3",
                 "--seed", "77", "-o", inst_path])
    assert code == 0
    same_gen = open(inst_path, "rb").read() == first_gen

    sols = []
    csvs = []
    for r in range(2):
        sol_path = str(tmp_path / f"sol{r}.txt")
        csv_path = str(tmp_path / f"bench{r}.csv")
        assert main(["solve", inst_path, "--strategy", "2", "--prove",
                     "--gap", "0", "--omit-timing", "-o", sol_path]) == 0
        assert main(["bench", inst_path, "--omit-timing", "-o", csv_path]) == 0
        sols.append(open(sol_path, "rb").read())
        csvs.append(open(csv_path, "rb").read())

    ok = same_gen and sols[0] == sols[1] and csvs[0] == csvs[1]
    announce(
        capsys, 7, "cli-determinism", ok,
        f"generate/solve/bench byte-identical across repeat runs "
        f"({len(sols[0])}B solution, {len(csvs[0])}B csv)",
    )


def test_criterion_8_mps_round_trip(suite1, capsys):
    failed = 0
    for inst in suite1:
        model = build_model(inst)
        back = read_mps(write_mps(model))
        same = (
            models_structurally_equal(back, model)
            and back.sos_type == model.sos_type
            and back.sos_starts.tobytes() == model.sos_starts.tobytes()
        )
        if not same:
            failed += 1
    announce(
        capsys, 8, "mps-round-trip", failed == 0,
        f"{len(suite1) - failed}/{len(suite1)} models structurally equal",
    )
