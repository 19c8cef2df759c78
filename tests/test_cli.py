import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bidopt
from bidopt.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, main
from bidopt.fileio import (
    instance_from_json,
    instance_to_json,
    read_mps,
    read_solution,
    verify_solution,
    write_instance,
    write_mps,
)
from bidopt.generate import GenParams, generate_instance
from bidopt.model import build_model

from conftest import make_nonadjacent_instance, make_t1


@pytest.fixture
def t1_path(tmp_path):
    p = tmp_path / "t1.json"
    write_instance(make_t1(), str(p))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, env=None):
    """``bidopt`` in a child process with a timeout: an unchecked value can
    keep the search running without end, and the timeout makes that a
    failure.  ``BIDOPT_*`` variables come from ``env`` only."""
    src = str(Path(bidopt.__file__).resolve().parent.parent)
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("BIDOPT_")}
    child_env.update(env or {})
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, child_env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "bidopt.cli", *argv],
        env=child_env, capture_output=True, text=True, timeout=30,
    )


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


class TestEnvOverrides:
    def test_bad_gap_env(self, t1_path, capsys, monkeypatch):
        monkeypatch.setenv("BIDOPT_GAP", "not-a-number")
        code, _, stderr = run(capsys, "solve", t1_path)
        assert code == EXIT_INPUT
        assert "BIDOPT_GAP" in stderr

    def test_gap_flag_beats_env(self, t1_path, capsys, monkeypatch):
        monkeypatch.setenv("BIDOPT_GAP", "not-a-number")
        # repair the env reading only matters when the flag is absent
        monkeypatch.setenv("BIDOPT_GAP", "0.5")
        code, stdout, _ = run(
            capsys, "solve", t1_path, "--prove", "--gap", "0", "--omit-timing",
        )
        assert code == EXIT_OK
        assert read_solution(stdout)["status"] == "optimal"

    def test_zero_tol_env_changes_rounding(self, tmp_path, capsys, monkeypatch):
        # with zero_tol raised to 0.6, the root point of the T1 relaxation
        # (6/11 and 5/11) looks like a single nonzero and is accepted as is
        p = tmp_path / "t1.json"
        write_instance(make_t1(), str(p))
        monkeypatch.setenv("BIDOPT_ZERO_TOL", "0.6")
        code, stdout, _ = run(
            capsys, "solve", str(p), "--prove", "--gap", "0", "--omit-timing",
        )
        assert code == EXIT_OK
        doc = read_solution(stdout)
        assert math.isclose(doc["objective"], 900.0 / 11.0, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("BIDOPT_FEAS_TOL", "nan"),
            ("BIDOPT_FEAS_TOL", "0"),
            ("BIDOPT_OPT_TOL", "nan"),
            ("BIDOPT_OPT_TOL", "-1"),
            ("BIDOPT_OPT_TOL", "inf"),
            ("BIDOPT_ZERO_TOL", "nan"),
            ("BIDOPT_ZERO_TOL", "-1"),
            ("BIDOPT_NEAR_ONE_TOL", "0"),
            ("BIDOPT_NEAR_ONE_TOL", "1.5"),
            ("BIDOPT_RC_TOL", "-1"),
            ("BIDOPT_GAP", "inf"),
            ("--gap", "-1"),
            ("--gap", "nan"),
        ],
    )
    def test_out_of_range_tolerance_is_input_error(self, tmp_path, name, value):
        p = tmp_path / "four.json"
        write_instance(
            generate_instance(GenParams(campaigns_per_business=4, seed=5)), str(p)
        )
        argv = ["solve", str(p), "--prove"]
        env = {}
        if name == "--gap":
            argv += ["--gap", value]
        else:
            env[name] = value
        done = run_child(*argv, env=env)
        assert done.returncode == EXIT_INPUT, done.stdout
        assert name in done.stderr


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
        write_instance(make_nonadjacent_instance(), str(p))
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

    @pytest.mark.parametrize("strategy", ["none", "1", "2", "3"])
    def test_honours_tolerance_overrides(self, t1_path, capsys, monkeypatch, strategy):
        # zero_tol 0.6 accepts the T1 root point: degradation 0 instead of 38.889
        monkeypatch.setenv("BIDOPT_ZERO_TOL", "0.6")
        common = ["--prove", "--gap", "0", "--omit-timing"]
        sos = ["--sos", "2"] if strategy == "3" else []
        code, stdout, _ = run(
            capsys, "solve", t1_path, "--strategy", strategy, *sos, *common
        )
        assert code == EXIT_OK
        solved = read_solution(stdout)["degradation_pct"]
        code, stdout, _ = run(capsys, "bench", t1_path, "--strategies", strategy, *common)
        assert code == EXIT_OK
        row = stdout.splitlines()[1].split(",")
        assert row[5] == f"{solved:.3f}"

    def test_multiple_files(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_instance(make_t1(), str(p1))
        write_instance(make_nonadjacent_instance(), str(p2))
        code, stdout, _ = run(
            capsys, "bench", str(p1), str(p2), "--strategies", "1", "--omit-timing",
        )
        assert code == EXIT_OK
        assert [r.split(",")[0] for r in stdout.splitlines()[1:]] == ["1", "2"]
