import dataclasses
import functools
import json
import math
import operator
import re
from pathlib import Path

import pytest

from bidopt import fileio, search, simplex
from bidopt.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_NUMERICAL, EXIT_OK, main
from bidopt.fileio import (
    instance_from_json,
    instance_to_json,
    read_mps,
    read_solution,
    verify_solution,
    write_mps,
)
from bidopt.generate import GenParams, generate_instance
from bidopt.model import Instance, build_model

from conftest import make_nonadjacent_instance, make_overflow_instance, make_t1, run_python


@pytest.fixture
def t1_path(tmp_path):
    p = tmp_path / "t1.json"
    p.write_text(instance_to_json(make_t1()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, env=None):
    """``bidopt`` in a child process (see ``run_python``)."""
    return run_python("-m", "bidopt.cli", *argv, env=env)


class TestGenerate:
    def test_writes_valid_instance(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code, stdout, _ = run(
            capsys,
            "generate", "--businesses", "2", "--campaigns", "3",
            "--levels", "2:4", "--seed", "9", "-o", str(out),
        )
        assert code == EXIT_OK
        assert stdout == ""
        doc = json.loads(out.read_text())
        assert len(doc["businesses"]) == 2
        assert len(doc["campaigns"]) == 6

    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["generate", "--campaigns", "2", "--seed", "4"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2 and out1

    def test_stdout_default(self, capsys):
        code, stdout, _ = run(capsys, "generate", "--campaigns", "1", "--seed", "0")
        assert code == EXIT_OK
        json.loads(stdout)

    def test_bad_range_is_input_error(self, capsys):
        code, _, stderr = run(capsys, "generate", "--campaigns", "4:2")
        assert code == EXIT_INPUT
        assert "error:" in stderr


class TestSolve:
    def test_solves_and_verifies(self, t1_path, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        code, _, _ = run(
            capsys, "solve", t1_path, "--prove", "--gap", "0", "-o", str(out),
        )
        assert code == EXIT_OK
        doc = read_solution(out.read_text())
        assert doc["status"] == "optimal"
        assert math.isclose(doc["objective"], 50.0, rel_tol=1e-9)
        assert verify_solution(make_t1(), doc["columns"], sos_type=1) == []

    def test_sos2_with_strategy3(self, t1_path, capsys):
        code, stdout, _ = run(
            capsys, "solve", t1_path, "--sos", "2", "--strategy", "3",
            "--prove", "--gap", "0", "--omit-timing",
        )
        assert code == EXIT_OK
        doc = read_solution(stdout)
        assert doc["sos_type"] == 2
        assert doc["strategy"] == "3"
        assert math.isclose(doc["objective"], 900.0 / 11.0, rel_tol=1e-9)
        assert math.isclose(doc["bids"]["c1"], 0.536363636364, rel_tol=1e-9)

    @pytest.mark.parametrize("strategy", ["none", "3"])
    def test_campaignless_instance_keeps_sos2(self, tmp_path, capsys, strategy):
        # no campaigns, so no sets: the model is SOS2 all the same
        p = tmp_path / "empty.json"
        p.write_text(instance_to_json(Instance((), (), 10.0)))
        code, stdout, _ = run(
            capsys, "solve", str(p), "--sos", "2", "--strategy", strategy,
            "--omit-timing",
        )
        assert code == EXIT_OK
        doc = read_solution(stdout)
        assert (doc["sos_type"], doc["strategy"]) == (2, strategy)
        assert doc["objective"] == 0.0

    def test_lp_bound_is_exact_on_the_criterion_7_instance(self, tmp_path, capsys):
        # the LP value is 1788.75404086458343 (exact rational arithmetic on
        # the optimal basis); a primal a few ulp off prints ...584
        inst = str(tmp_path / "inst.json")
        run(capsys, "generate", "--businesses", "2", "--campaigns", "3",
            "--seed", "77", "-o", inst)
        code, stdout, _ = run(
            capsys, "solve", inst, "--strategy", "2", "--prove", "--gap", "0",
            "--omit-timing",
        )
        assert code == EXIT_OK
        assert "LP_BOUND 1788.754040864583" in stdout.splitlines()

    def test_strategy3_on_sos1_rejected(self, t1_path, capsys):
        code, _, stderr = run(capsys, "solve", t1_path, "--strategy", "3")
        assert code == EXIT_INPUT
        assert "strategy 3" in stderr

    def test_missing_file(self, capsys):
        code, _, stderr = run(capsys, "solve", "/nonexistent/x.json")
        assert code == EXIT_INPUT
        assert "error:" in stderr

    def test_invalid_json_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{\n")
        code, _, stderr = run(capsys, "solve", str(p))
        assert code == EXIT_INPUT
        assert "invalid instance JSON" in stderr

    @pytest.mark.parametrize(
        "field, value", [("ret", True), ("ctr", "0.4"), ("budget", "100"), ("level_index", True)]
    )
    def test_non_number_is_input_error(self, tmp_path, capsys, field, value):
        doc = json.loads(instance_to_json(make_t1()))
        owner = {"ctr": doc["campaigns"][0], "budget": doc["businesses"][0]}
        owner.get(field, doc["campaigns"][0]["levels"][1])[field] = value
        p = tmp_path / "instance.json"
        p.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", str(p))
        assert code == EXIT_INPUT
        assert f"{field} " in stderr

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("campaigns", 0, "levels", 1, "level_index"), "abc", "c1: level_index values"),
            (("campaigns", 0, "levels", 1, "level_index"), None, "c1: level_index values"),
            (("campaigns", 0, "levels", 1, "level_index"), [], "c1: level_index values"),
            (("campaigns", 0, "id"), {"x": 1},
             'id must be a JSON string or integer, not {"x": 1}'),
            (("campaigns", 0, "business_id"), True, "business_id must be a JSON string"),
            (("businesses", 0, "id"), True, "id must be a JSON string or integer, not true"),
        ],
        ids=["index-abc", "index-null", "index-list", "campaign-id", "owner-id", "business-id"],
    )
    def test_bad_level_index_or_id_is_input_error(self, tmp_path, capsys, keys, value, message):
        doc = json.loads(instance_to_json(make_t1()))
        functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
        p = tmp_path / "instance.json"
        p.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", str(p))
        assert code == EXIT_INPUT
        assert message in stderr

    @pytest.mark.parametrize(
        "listed, code, message",
        [([3], EXIT_OK, "STATUS feasible"), ([3, "x"], EXIT_INPUT, "campaign_ids inconsistent")],
        ids=["matching", "inconsistent"],
    )
    def test_integer_campaign_ids(self, tmp_path, capsys, listed, code, message):
        doc = json.loads(instance_to_json(make_t1()))
        doc["businesses"][0]["id"] = doc["campaigns"][0]["business_id"] = 7
        doc["campaigns"][0]["id"] = 3
        doc["businesses"][0]["campaign_ids"] = listed
        p = tmp_path / "instance.json"
        p.write_text(json.dumps(doc))
        got, stdout, stderr = run(capsys, "solve", str(p))
        assert got == code
        assert message in stdout + stderr

    def test_number_too_long_to_convert_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "instance.json"
        p.write_text(instance_to_json(make_t1()).replace('"ret": 50.0', '"ret": ' + "9" * 5000))
        code, _, stderr = run(capsys, "solve", str(p))
        assert code == EXIT_INPUT
        assert "invalid instance JSON: " in stderr

    def test_limit_without_incumbent(self, t1_path, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        code, _, stderr = run(
            capsys, "solve", t1_path, "--prove", "--node-limit", "0", "-o", str(out),
        )
        assert code == EXIT_LIMIT
        assert "limit" in stderr
        assert read_solution(out.read_text())["status"] == "limit"

    def test_mps_out(self, t1_path, tmp_path, capsys):
        mps = tmp_path / "model.mps"
        code, _, _ = run(
            capsys, "solve", t1_path, "--mps-out", str(mps), "--omit-timing",
        )
        assert code == EXIT_OK
        model = read_mps(mps.read_text())
        assert [c.name for c in model.columns] == ["D_c1_0", "D_c1_1", "D_c1_2"]

    def test_repeat_runs_byte_identical(self, t1_path, capsys):
        args = ["solve", t1_path, "--omit-timing", "--prove", "--gap", "0"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class RaisingEngine(simplex.SimplexEngine):
    def solve(self, *args, **kwargs):
        raise RuntimeError("singular basis")


class UnboundedEngine(simplex.SimplexEngine):
    def solve(self, *args, **kwargs):
        sol = super().solve(*args, **kwargs)
        return dataclasses.replace(sol, status=simplex.UNBOUNDED)


class TestNumericalFailure:
    @pytest.mark.parametrize(
        "engine, message",
        [(RaisingEngine, "singular basis"), (UnboundedEngine, "unbounded")],
    )
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_exit_code(self, t1_path, capsys, monkeypatch, engine, message, command):
        monkeypatch.setattr(search, "SimplexEngine", engine)
        code, _, stderr = run(capsys, command, t1_path)
        assert code == EXIT_NUMERICAL
        assert stderr.startswith("error:") and message in stderr
        assert "Traceback" not in stderr


class TestEnvOverrides:
    """The tolerances are constants: ``--gap`` is the one set per run, and
    the environment variables that once overrode the others do nothing."""

    # every value here but BIDOPT_ZERO_TOL's was once an input error (exit
    # 3); that one made T1's fractional root point the answer
    FORMER_VARIABLES = {
        "BIDOPT_FEAS_TOL": "nan",
        "BIDOPT_OPT_TOL": "-1",
        "BIDOPT_ZERO_TOL": "0.6",
        "BIDOPT_NEAR_ONE_TOL": "1.5",
        "BIDOPT_RC_TOL": "inf",
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--strategy", "none"],
            ["solve", "--strategy", "1"],
            ["solve", "--strategy", "2"],
            ["solve", "--sos", "2", "--strategy", "3"],
            ["bench", "--strategies", "none,1,2,3"],
        ],
        ids=["solve-none", "solve-1", "solve-2", "solve-3", "bench"],
    )
    def test_former_tolerance_variables_change_no_byte(self, t1_path, argv):
        argv = [argv[0], t1_path, *argv[1:], "--prove", "--gap", "0", "--omit-timing"]
        plain = run_child(*argv)
        under = run_child(*argv, env=self.FORMER_VARIABLES)
        assert plain.returncode == under.returncode == EXIT_OK, under.stderr
        assert under.stdout == plain.stdout

    @pytest.mark.parametrize("name,value", [("--gap", "-1"), ("--gap", "nan")])
    def test_out_of_range_tolerance_is_input_error(self, tmp_path, name, value):
        p = tmp_path / "four.json"
        p.write_text(instance_to_json(
            generate_instance(GenParams(campaigns_per_business=4, seed=5))
        ))
        done = run_child("solve", str(p), "--prove", name, value)
        assert done.returncode == EXIT_INPUT, done.stdout
        assert name in done.stderr


class TestLimitFlags:
    @pytest.mark.parametrize(
        "flag, value",
        [("--time-limit", "nan"), ("--time-limit", "-1"), ("--node-limit", "-1")],
    )
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_out_of_range_is_input_error(self, t1_path, command, flag, value):
        done = run_child(command, t1_path, "--prove", flag, value)
        assert done.returncode == EXIT_INPUT, done.stdout
        assert flag in done.stderr
        assert "Traceback" not in done.stderr

    def test_zero_limits_are_accepted(self, t1_path, capsys):
        code, _, _ = run(capsys, "solve", t1_path, "--time-limit", "0", "--node-limit", "0")
        assert code == EXIT_LIMIT


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("impression_budget", "NaN"),
            ("budget", "NaN"),
            ("cpc", "NaN"),
            ("ret", "Infinity"),
            ("ad_value", "Infinity"),
            ("impressions", "Infinity"),
            ("bid", "-Infinity"),
            ("mps", "nan"),
        ],
    )
    def test_is_input_error(self, tmp_path, field, value):
        instance = generate_instance(
            GenParams(businesses=1, campaigns_per_business=3, levels_per_campaign=2, seed=1)
        )
        if field == "mps":
            p = tmp_path / "model.mps"
            text = write_mps(build_model(instance))
            p.write_text(re.sub(r"(COST +)\S+", r"\g<1>" + value, text, count=1))
            argv = ["convert", str(p)]
        else:
            doc = json.loads(instance_to_json(instance))
            if field == "impression_budget":
                doc[field] = float(value)
            elif field in ("budget", "cpc"):
                doc["businesses"][0][field] = float(value)
            else:
                doc["campaigns"][0]["levels"][1][field] = float(value)
            p = tmp_path / "instance.json"
            p.write_text(json.dumps(doc))
            argv = ["solve", str(p), "--prove"]
        done = run_child(*argv)
        assert done.returncode == EXIT_INPUT, done.stdout
        assert "Traceback" not in done.stderr
        assert "finite" in done.stderr


class TestNoTraceback:
    """Malformed input in a child process: a usage error, a JSON document
    nested too deep for the decoder, and amounts whose products overflow
    are input errors; tiny amounts solve."""

    @staticmethod
    def _instance(tmp_path, impressions, ad_value=0.5, cpc=2.0):
        doc = json.loads(instance_to_json(make_t1()))
        doc["businesses"][0]["cpc"] = cpc
        level = doc["campaigns"][0]["levels"][1]
        level["impressions"], level["ad_value"] = impressions, ad_value
        p = tmp_path / "instance.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{t1}", "--time-limit", "abc"],
            ["solve", "{t1}", "--sos", "3"],
            ["generate", "--campaigns", "a:b"],
            [],
        ],
    )
    def test_usage_error_is_input_error(self, t1_path, argv):
        done = run_child(*(a.format(t1=t1_path) for a in argv))
        assert done.returncode == EXIT_INPUT, done.stdout
        assert "error:" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, argv):
        done = run_child(*argv)
        assert done.returncode == EXIT_OK
        assert "usage:" in done.stdout

    @pytest.mark.parametrize("command", ["solve", "convert"])
    def test_deeply_nested_json_is_input_error(self, tmp_path, command):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200_000 + "]" * 200_000)
        done = run_child(command, str(p))
        assert done.returncode == EXIT_INPUT, done.stdout
        assert "error: invalid instance JSON:" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "amounts, message",
        [
            ((1e200, 1e200, 2.0), "level 1: spend impressions * ad_value overflows"),
            ((1e200, 0.5, 1e200), "level 1: click weight impressions * cpc * ctr overflows"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "convert", "oracle", "bench"])
    def test_overflowing_products_are_input_errors(self, tmp_path, command, amounts, message):
        done = run_child(command, self._instance(tmp_path, *amounts))
        assert done.returncode == EXIT_INPUT, done.stdout
        assert f"error: invalid instance: campaign c1 {message}" in done.stderr
        assert "Traceback" not in done.stderr + done.stdout

    @pytest.mark.parametrize("sos", ["1", "2"])
    def test_tiny_amounts_solve_to_the_oracle_optimum(self, tmp_path, sos):
        path = self._instance(tmp_path, 1e-320)
        done = run_child("solve", path, "--sos", sos, "--prove", "--omit-timing")
        assert done.returncode == EXIT_OK, done.stderr
        assert "Traceback" not in done.stderr + done.stdout
        oracle = run_child("oracle", path, "--sos", sos).stdout.splitlines()[0]
        assert done.stdout.splitlines()[:2] == ["STATUS optimal", oracle]

    def test_oracle_row_masses_that_overflow(self, tmp_path):
        p = tmp_path / "overflow.json"
        p.write_text(instance_to_json(make_overflow_instance()))
        done = run_child("oracle", str(p))
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.splitlines()[0] == f"OBJECTIVE {0.0:.12f}"
        assert done.stderr == ""
        done = run_child("oracle", str(p), "--sos", "2")
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.splitlines()[0] == f"OBJECTIVE {0.0:.12f}"
        assert done.stderr == ""

    def test_campaignless_sos2_oracle(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"impression_budget": 1.0, "businesses": [], "campaigns": []}))
        done = run_child("oracle", str(p), "--sos", "2")
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == f"OBJECTIVE {0.0:.12f}\n"


class TestImports:
    def test_solve_leaves_scipy_optimize_unloaded(self, t1_path):
        # only `bidopt oracle` needs scipy.optimize, a tenth of a second
        # of import that `bidopt solve` would otherwise pay
        done = run_python("-c", "\n".join([
            "import sys",
            "from bidopt.cli import main",
            f"code = main(['solve', {t1_path!r}, '--sos', '2', '--strategy', '3', '--prove'])",
            "assert 'scipy.optimize' not in sys.modules, 'solve loaded scipy.optimize'",
            "sys.exit(code)",
        ]))
        assert done.returncode == EXIT_OK, done.stderr


class TestReadme:
    def test_library_example_runs(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        example = re.search(
            r"^## Library use\n\n```python\n(.*?)^```$",
            readme.read_text(encoding="utf-8"), re.M | re.S,
        )
        done = run_python("-c", example[1])
        assert done.returncode == EXIT_OK, done.stderr

    def test_tolerance_table_gives_the_constants(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = re.findall(
            r"^\| `(\w+)\.(\w+_TOL)` \| `([^`]+)` \|", readme.read_text(encoding="utf-8"), re.M,
        )
        modules = {"simplex": simplex, "search": search, "fileio": fileio}
        assert len(rows) == 7
        for module, name, value in rows:
            assert getattr(modules[module], name) == float(value), name


class TestOracle:
    def test_sos1_lines(self, t1_path, capsys):
        code, stdout, _ = run(capsys, "oracle", t1_path)
        assert code == EXIT_OK
        assert stdout.splitlines() == [
            "OBJECTIVE 50.000000000000",
            "LEVEL c1 1",
        ]

    def test_sos2_lines(self, t1_path, capsys):
        code, stdout, _ = run(capsys, "oracle", t1_path, "--sos", "2")
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[0].startswith("OBJECTIVE 81.818181818")
        assert lines[1].startswith("PATTERN c1 1 2 ")

    def test_matches_solver(self, tmp_path, capsys):
        p = tmp_path / "na.json"
        p.write_text(instance_to_json(make_nonadjacent_instance()))
        code, oracle_out, _ = run(capsys, "oracle", str(p), "--sos", "2")
        assert code == EXIT_OK
        oracle_obj = float(oracle_out.splitlines()[0].split()[1])
        code, solve_out, _ = run(
            capsys, "solve", str(p), "--sos", "2", "--prove", "--gap", "0",
            "--omit-timing",
        )
        assert code == EXIT_OK
        assert math.isclose(
            read_solution(solve_out)["objective"], oracle_obj, rel_tol=1e-9
        )


class TestConvert:
    def test_json_to_mps_to_json(self, t1_path, tmp_path, capsys):
        mps = tmp_path / "t1.mps"
        code, _, _ = run(capsys, "convert", t1_path, "-o", str(mps))
        assert code == EXIT_OK
        back = tmp_path / "back.json"
        code, _, _ = run(capsys, "convert", str(mps), "-o", str(back))
        assert code == EXIT_OK
        doc = json.loads(back.read_text())
        assert doc["impression_budget"] == 1000.0
        assert [c["id"] for c in doc["campaigns"]] == ["c1"]
        # models built from both instance files carry the same matrix
        a = build_model(make_t1())
        b = build_model(instance_from_json(back.read_text()))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.name == rb.name
            for (ja, va), (jb, vb) in zip(ra.coeffs, rb.coeffs):
                assert ja == jb
                assert math.isclose(va, vb, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # a set must be a run of columns with its positions as weights
            ("    D_c1_2              2.0\n", "    D_c1_2              5.0\n",
             "MPS line 36: weight 5.0 of 'D_c1_2' is not its position 2"),
            ("    D_c1_1              1.0\n    D_c1_2              2.0\n",
             "    D_c1_2              1.0\n    D_c1_1              2.0\n",
             "MPS line 35: member 'D_c1_2' is not the next column 'D_c1_1'"),
            ("COST                50.0", "COST                -50.0",
             "campaign c1 level 1: ret must be >= 0"),
            (" UP BND                 D_c1_1              1.0",
             " UP BND                 D_c1_1              0.5",
             "no instance gives this model (file against rebuilt): "
             "column D_c1_1 upper bound 0.5 against 1.0"),
            (" E  CVX_c1", " L  CVX_c1", "row CVX_c1 sense 'L' against 'E'"),
        ],
    )
    def test_mps_that_no_instance_builds_is_input_error(
        self, tmp_path, capsys, old, new, message
    ):
        text = write_mps(build_model(make_t1()))
        assert old in text
        p = tmp_path / "model.mps"
        p.write_text(text.replace(old, new))
        out = tmp_path / "back.json"
        code, _, stderr = run(capsys, "convert", str(p), "-o", str(out))
        assert code == EXIT_INPUT
        assert message in stderr
        assert not out.exists()

    def test_unknown_extension(self, tmp_path, capsys):
        p = tmp_path / "model.txt"
        p.write_text("x")
        code, _, stderr = run(capsys, "convert", str(p))
        assert code == EXIT_INPUT
        assert ".json or .mps" in stderr


class TestBench:
    def test_csv_deterministic(self, t1_path, capsys):
        args = ["bench", t1_path, "--omit-timing", "--prove", "--gap", "0"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        rows = out1.splitlines()
        assert rows[0] == (
            "model,sos_count,strategy,degradation_pct,first_solution_seconds,"
            "best_known_degradation_pct"
        )
        assert len(rows) == 4  # header + strategies 1, 2, 3

    def test_strategy_list(self, t1_path, capsys):
        code, stdout, _ = run(
            capsys, "bench", t1_path, "--strategies", "none,2", "--omit-timing",
        )
        assert code == EXIT_OK
        assert [r.split(",")[2] for r in stdout.splitlines()[1:]] == ["none", "2"]

    def test_unknown_strategy(self, t1_path, capsys):
        code, _, stderr = run(capsys, "bench", t1_path, "--strategies", "9")
        assert code == EXIT_INPUT
        assert "unknown strategy" in stderr

    def test_multiple_files(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        p1.write_text(instance_to_json(make_t1()))
        p2.write_text(instance_to_json(make_nonadjacent_instance()))
        code, stdout, _ = run(
            capsys, "bench", str(p1), str(p2), "--strategies", "1", "--omit-timing",
        )
        assert code == EXIT_OK
        assert [r.split(",")[0] for r in stdout.splitlines()[1:]] == ["1", "2"]
