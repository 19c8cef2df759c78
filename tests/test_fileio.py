import dataclasses
import functools
import json
import math
import operator

import numpy as np
import pytest

from bidopt.fileio import (
    MpsParseError,
    instance_from_json,
    instance_to_json,
    model_to_instance,
    models_structurally_equal,
    read_instance,
    read_mps,
    read_solution,
    verify_solution,
    write_mps,
    write_solution,
)
from bidopt.cli import run_benchmark
from bidopt.generate import GenParams, generate_instance
from bidopt.model import build_model
from bidopt.search import SearchLimits, branch_and_bound, relax_to_sos2

from conftest import make_t1

PROVE = SearchLimits(first_solution=False, gap=0.0)

T1_MPS = """\
* OBJSENSE: MAXIMIZE
NAME          BIDOPT
ROWS
 N  COST
 E  CVX_c1
 L  BUD_k1
 L  CLK_k1
 L  IMP
COLUMNS
    D_c1_0              CVX_c1              1.0
    D_c1_0              BUD_k1              0.0
    D_c1_0              CLK_k1              -0.0
    D_c1_0              IMP                 0.0
    D_c1_1              COST                50.0
    D_c1_1              CVX_c1              1.0
    D_c1_1              BUD_k1              50.0
    D_c1_1              CLK_k1              -30.000000000000004
    D_c1_1              IMP                 100.0
    D_c1_2              COST                120.0
    D_c1_2              CVX_c1              1.0
    D_c1_2              BUD_k1              160.0
    D_c1_2              CLK_k1              0.0
    D_c1_2              IMP                 200.0
RHS
    RHS                 CVX_c1              1.0
    RHS                 BUD_k1              100.0
    RHS                 IMP                 1000.0
BOUNDS
 UP BND                 D_c1_0              1.0
 UP BND                 D_c1_1              1.0
 UP BND                 D_c1_2              1.0
SOS
 S1 S_c1
    D_c1_0              0.0
    D_c1_1              1.0
    D_c1_2              2.0
ENDATA
"""

SOS_LINE = T1_MPS.splitlines().index(" S1 S_c1") + 1  # the set's header
UP_LINE = " UP BND                 D_c1_1              1.0"
BOUND_LINE = T1_MPS.splitlines().index(UP_LINE) + 1  # column D_c1_1's bound

T1_JSON = """\
{
  "impression_budget": 1000.0,
  "businesses": [
    {
      "id": "k1",
      "budget": 100.0,
      "cpc": 2.0
    }
  ],
  "campaigns": [
    {
      "id": "c1",
      "business_id": "k1",
      "ctr": 0.4,
      "levels": [
        {
          "level_index": 0,
          "ret": 0.0,
          "ad_value": 0.0,
          "impressions": 0.0,
          "bid": null
        },
        {
          "level_index": 1,
          "ret": 50.0,
          "ad_value": 0.5,
          "impressions": 100.0,
          "bid": 0.4
        },
        {
          "level_index": 2,
          "ret": 120.0,
          "ad_value": 0.8,
          "impressions": 200.0,
          "bid": 0.7
        }
      ]
    }
  ]
}
"""

T1_SOLUTION = """\
STATUS optimal
OBJECTIVE 50.000000000000
LP_BOUND 81.818181818182
DEGRADATION_PCT 38.888888888889
STRATEGY none
SOS_TYPE 1
SECONDS -
NODES 3
COLUMN D_c1_1 1.000000000000
BID c1 0.400000000000
"""


class TestInstanceJson:
    def test_t1_golden(self, t1_instance):
        assert instance_to_json(t1_instance) == T1_JSON

    def test_round_trip(self, t1_instance):
        text = instance_to_json(t1_instance)
        assert text.endswith("\n")
        assert instance_from_json(text) == t1_instance

    def test_round_trip_generated(self):
        inst = generate_instance(GenParams(businesses=2, campaigns_per_business=3, seed=8))
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_campaign_ids_not_serialized_but_accepted(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        # the owning-business lists are derivable, so the writer omits them
        assert "campaign_ids" not in doc["businesses"][0]
        doc["businesses"][0]["campaign_ids"] = ["c1"]
        assert instance_from_json(json.dumps(doc)) == t1_instance

    def test_campaign_ids_must_match_the_campaigns(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        for listed in (["c1", "c2"], []):
            doc["businesses"][0]["campaign_ids"] = listed
            with pytest.raises(
                ValueError, match="business k1: campaign_ids inconsistent with campaigns"
            ):
                instance_from_json(json.dumps(doc))

    def test_bad_json_text(self):
        with pytest.raises(ValueError, match="invalid instance JSON"):
            instance_from_json("{not json")

    def test_missing_field(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        del doc["campaigns"][0]["ctr"]
        with pytest.raises(ValueError, match="missing or bad field"):
            instance_from_json(json.dumps(doc))

    def test_invalid_instance_rejected(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        doc["impression_budget"] = -5.0
        with pytest.raises(ValueError, match="invalid instance"):
            instance_from_json(json.dumps(doc))

    def test_nonconsecutive_level_index(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        doc["campaigns"][0]["levels"][2]["level_index"] = 5
        with pytest.raises(ValueError, match="c1: level_index values must be 0..2 consecutive"):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "index, ok", [(1, True), (1.0, True), ("1", True), (1.5, False), (True, False)]
    )
    def test_level_index_is_the_position(self, t1_instance, index, ok):
        doc = json.loads(instance_to_json(t1_instance))
        doc["campaigns"][0]["levels"][1]["level_index"] = index
        if ok:
            assert instance_from_json(json.dumps(doc)) == t1_instance
        else:
            with pytest.raises(ValueError, match="level_index values must be 0..2 consecutive"):
                instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize("index", ["abc", None, []], ids=["abc", "null", "list"])
    def test_level_index_that_names_no_number(self, t1_instance, index):
        doc = json.loads(instance_to_json(t1_instance))
        doc["campaigns"][0]["levels"][1]["level_index"] = index
        with pytest.raises(
            ValueError,
            match="^invalid instance: campaign c1: level_index values must be 0..2 consecutive$",
        ):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("campaigns", 0, "id"), {"x": 1},
             'id must be a JSON string or integer, not {"x": 1}'),
            (("campaigns", 0, "business_id"), True, "business_id .*, not true"),
            (("businesses", 0, "id"), 1.5, "id must be a JSON string or integer, not 1.5"),
        ],
        ids=["campaign", "owner", "business"],
    )
    def test_ids_must_be_json_strings_or_integers(self, t1_instance, keys, value, message):
        doc = json.loads(instance_to_json(t1_instance))
        functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
        with pytest.raises(ValueError, match=f"^invalid instance JSON: {message}$"):
            instance_from_json(json.dumps(doc))

    def test_integer_ids_read_as_strings(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        doc["businesses"][0]["id"] = doc["campaigns"][0]["business_id"] = 7
        doc["campaigns"][0]["id"] = 3
        inst = instance_from_json(json.dumps(doc))
        assert (inst.businesses[0].id, inst.campaigns[0].id) == ("7", "3")
        assert inst.campaigns[0].business_id == "7"

    def test_integer_campaign_ids_name_integer_ids(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        doc["businesses"][0]["id"] = doc["campaigns"][0]["business_id"] = 7
        doc["campaigns"][0]["id"] = 3
        doc["businesses"][0]["campaign_ids"] = [3]
        assert instance_from_json(json.dumps(doc)).campaigns[0].id == "3"
        doc["businesses"][0]["campaign_ids"] = [3, "x"]
        with pytest.raises(ValueError, match="business 7: campaign_ids inconsistent"):
            instance_from_json(json.dumps(doc))

    def test_number_too_long_to_convert(self, t1_instance):
        # json.loads refuses integer literals of more than 4 300 digits
        text = instance_to_json(t1_instance).replace('"ret": 50.0', '"ret": ' + "9" * 5000)
        with pytest.raises(ValueError, match="^invalid instance JSON: "):
            instance_from_json(text)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("campaigns", 0, "levels", 1, "ret"), True, "ret must be a JSON number, not true"),
            (("campaigns", 0, "levels", 1, "ad_value"), "0.5", 'ad_value .*, not "0.5"'),
            (("campaigns", 0, "levels", 2, "impressions"), False, "impressions .*, not false"),
            (("campaigns", 0, "levels", 1, "bid"), "0.4", 'bid must be a JSON number, not "0.4"'),
            (("campaigns", 0, "ctr"), "0.4", 'ctr must be a JSON number, not "0.4"'),
            (("businesses", 0, "budget"), "100", 'budget must be a JSON number, not "100"'),
            (("businesses", 0, "cpc"), True, "cpc must be a JSON number, not true"),
            (("impression_budget",), "1000", 'impression_budget .*, not "1000"'),
        ],
        ids=["ret", "ad_value", "impressions", "bid", "ctr", "budget", "cpc", "impression_budget"],
    )
    def test_amounts_must_be_json_numbers(self, t1_instance, keys, value, message):
        doc = json.loads(instance_to_json(t1_instance))
        functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
        with pytest.raises(ValueError, match=f"^invalid instance JSON: {message}$"):
            instance_from_json(json.dumps(doc))

    def test_integers_read_as_floats(self, t1_instance):
        doc = json.loads(instance_to_json(t1_instance))
        doc["impression_budget"] = 1000
        doc["businesses"][0]["budget"] = 100
        doc["campaigns"][0]["levels"][1].update(ret=50, impressions=100)
        inst = instance_from_json(json.dumps(doc))
        assert instance_to_json(inst) == T1_JSON

    def test_integer_too_large_for_a_float(self, t1_instance):
        text = instance_to_json(t1_instance).replace('"ret": 50.0', '"ret": ' + "9" * 400)
        with pytest.raises(ValueError, match="bad field int too large to convert to float"):
            instance_from_json(text)

    def test_reader_problems_come_before_the_instance_checks(self, t1_instance):
        # a bad level_index and a negative budget: the reader raises first,
        # naming only its own problem
        doc = json.loads(instance_to_json(t1_instance))
        doc["campaigns"][0]["levels"][2]["level_index"] = 5
        doc["businesses"][0]["budget"] = -1.0
        with pytest.raises(
            ValueError,
            match="^invalid instance: campaign c1: level_index values must be 0..2 consecutive$",
        ):
            instance_from_json(json.dumps(doc))

    def test_path_helpers(self, t1_instance, tmp_path):
        p = tmp_path / "inst.json"
        p.write_text(instance_to_json(t1_instance), encoding="utf-8")
        assert read_instance(str(p)) == t1_instance


class TestMpsWrite:
    def test_t1_golden(self, t1_model):
        assert write_mps(t1_model) == T1_MPS

    def test_deterministic(self, t1_model):
        assert write_mps(t1_model) == write_mps(t1_model)

    @pytest.mark.parametrize("lower", [0.5, -math.inf])
    def test_lower_bound_other_than_zero_raises(self, t1_model, lower):
        bounds = t1_model.lower.copy()
        bounds[1] = lower
        with pytest.raises(ValueError, match=f"column 'D_c1_1' has lower bound {lower!r}"):
            write_mps(dataclasses.replace(t1_model, lower=bounds))


class TestMpsRead:
    def test_round_trip_t1(self, t1_model):
        back = read_mps(write_mps(t1_model))
        assert models_structurally_equal(back, t1_model)
        assert back.sos_names == t1_model.sos_names
        assert back.sos_starts.tolist() == t1_model.sos_starts.tolist() == [0, 3]
        # bid metadata is not representable in the format
        assert np.isnan(back.bids).all()

    def test_set_type_comes_from_the_headers(self, t1_model):
        relaxed = relax_to_sos2(t1_model)
        text = write_mps(relaxed)
        assert " S2 S_c1\n" in text
        back = read_mps(text)
        assert back.sos_type == 2
        assert models_structurally_equal(back, relaxed)
        assert not models_structurally_equal(back, t1_model)
        no_sets = text[: text.index("SOS\n")] + "ENDATA\n"
        assert read_mps(no_sets).sos_type == 1

    def test_round_trip_is_fixed_point(self, t1_model):
        once = write_mps(read_mps(write_mps(t1_model)))
        assert once == write_mps(t1_model)

    def test_round_trip_generated(self):
        inst = generate_instance(GenParams(businesses=2, campaigns_per_business=4, seed=31))
        model = build_model(inst)
        assert models_structurally_equal(read_mps(write_mps(model)), model)

    def test_round_trip_keeps_zeros_and_repeats(self):
        text = (
            "ROWS\n N  COST\n E  g\n L  link\nCOLUMNS\n"
            "    x  COST  2.0\n    x  g  1.0\n    x  g  0.5\n    x  link  0.0\n"
            "    y  g  1.0\n    y  link  -3.0\nENDATA\n"
        )
        model = read_mps(text)
        assert model.rows[0].coeffs == ((0, 1.0), (0, 0.5), (1, 1.0))
        assert model.rows[1].coeffs == ((0, 0.0), (1, -3.0))
        back = read_mps(write_mps(model))
        assert models_structurally_equal(back, model)
        assert write_mps(back) == write_mps(model)

    def test_structural_equality_sees_every_part(self, t1_model):
        base = read_mps(write_mps(t1_model))
        data = base.data.copy()
        data[-1] += 1.0
        for change in (
            {"data": data},
            {"indices": base.indices[::-1].copy()},
            {"upper": base.upper * 2.0},
            {"senses": "LLLL"},
            {"row_names": ("a", "b", "c", "d")},
            {"sos_type": 2},
        ):
            assert not models_structurally_equal(dataclasses.replace(base, **change), base)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda t: t.replace("    D_c1_0              0.0\n    D_c1_1              1.0",
                                 "    D_c1_9              0.0\n    D_c1_1              1.0"),
             "unknown column"),
            (lambda t: t.replace("    D_c1_1              1.0\n    D_c1_2              2.0\n",
                                 "    D_c1_1              1.0\n    D_c1_2              1.0\n"),
             f"MPS line {SOS_LINE + 3}: weight 1.0 of 'D_c1_2' is not its position 2"),
            # a set is a run of columns: members in column order, no gaps
            (lambda t: t.replace("    D_c1_1              1.0\n    D_c1_2              2.0\n",
                                 "    D_c1_2              1.0\n    D_c1_1              2.0\n"),
             f"MPS line {SOS_LINE + 2}: member 'D_c1_2' is not the next column 'D_c1_1'"),
            (lambda t: t.replace("    D_c1_0              0.0\n", ""),
             f"MPS line {SOS_LINE + 1}: member 'D_c1_1' is not the next column 'D_c1_0'"),
            (lambda t: t.replace("    D_c1_1              1.0\n    D_c1_2              2.0\n",
                                 " S1 S_x\n    D_c1_2              0.0\n"),
             f"MPS line {SOS_LINE + 3}: member 'D_c1_2' is not the next column 'D_c1_1'"),
            (lambda t: t.replace("    D_c1_1              1.0\n    D_c1_2              2.0\n",
                                 " S1 S_x\n    D_c1_1              0.0\n    D_c1_1              1.0\n"),
             f"MPS line {SOS_LINE + 4}: member 'D_c1_1' is not the next column 'D_c1_2'"),
            (lambda t: t.replace(" S1 S_c1\n", " S1 S_e\n S1 S_c1\n"),
             f"MPS line {SOS_LINE}: set 'S_e' has no members"),
            (lambda t: t.replace("ENDATA\n", " S1 S_x\nENDATA\n"),
             f"MPS line {SOS_LINE + 4}: set 'S_x' has no members"),
            (lambda t: t.replace("ENDATA\n", ""), "missing ENDATA"),
            (lambda t: t.replace(" E  CVX_c1", " G  CVX_c1"), "G rows"),
            (lambda t: t.replace("RHS\n    RHS", "RANGES\n    RNG"), "RANGES"),
            (lambda t: t.replace("BUD_k1              50.0",
                                 "BUD_k1              fifty"),
             "bad numeric value"),
            (lambda t: t.replace("ROWS\n", ""), "data line outside any section"),
            (lambda t: t.replace(" N  COST", " N  PROFIT"), "must be named COST"),
            (lambda t: t.replace("NAME          BIDOPT", "NOISE         X"),
             "unknown section header"),
            (lambda t: t.replace("OBJSENSE: MAXIMIZE", "OBJSENSE: MINIMIZE"),
             "objective sense 'MINIMIZE'"),
            # the second set's header, where ENDATA was, names the other type
            (lambda t: t.replace("ENDATA\n", " S2 S_x\n    D_c1_0              0.0\nENDATA\n"),
             f"MPS line {T1_MPS.splitlines().index('ENDATA') + 1}: S2 set in an S1 model"),
            # UP is the only bound kind: every other one fails at its line
            *(
                (lambda t, line=line: t.replace(UP_LINE, line),
                 f"MPS line {BOUND_LINE}: bound kind '{line.split()[0]}' is not part of")
                for line in (
                    " LO BND                 D_c1_1              0.0",
                    " FX BND                 D_c1_1              1.0",
                    " FR BND                 D_c1_1",
                    " MI BND                 D_c1_1",
                    " PL BND                 D_c1_1",
                )
            ),
            (lambda t: t.replace(UP_LINE, " UP BND                 D_c1_1"),
             f"MPS line {BOUND_LINE}: expected 'UP <set> <column> <value>'"),
        ],
    )
    def test_parse_errors(self, mutate, message):
        with pytest.raises(MpsParseError, match=message):
            read_mps(mutate(T1_MPS))

    def test_parse_error_carries_line_number(self):
        bad = T1_MPS.replace("BUD_k1              50.0", "BUD_k1              fifty")
        with pytest.raises(MpsParseError) as info:
            read_mps(bad)
        assert info.value.line_no == T1_MPS.splitlines().index(
            "    D_c1_1              BUD_k1              50.0"
        ) + 1


class TestModelToInstance:
    def test_t1_recovers_structure(self, t1_model):
        inst = model_to_instance(read_mps(write_mps(t1_model)))
        assert [b.id for b in inst.businesses] == ["k1"]
        assert [c.id for c in inst.campaigns] == ["c1"]
        bus = inst.businesses[0]
        camp = inst.campaigns[0]
        assert bus.budget == 100.0
        assert inst.impression_budget == 1000.0
        # cpc and ctr are recovered only up to their product
        assert math.isclose(bus.cpc * camp.ctr, 0.8, rel_tol=1e-12)
        exp = make_t1().campaigns[0]
        for field in ("ret", "impressions", "ad_value"):
            got, want = getattr(camp, field), getattr(exp, field)
            assert len(got) == len(want) == 3
            for a, b in zip(got, want):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), field
        assert camp.bid == (None, None, None)

    def test_rebuild_matches_coefficients(self):
        inst = generate_instance(GenParams(businesses=2, campaigns_per_business=3, seed=0))
        model = build_model(inst)
        rebuilt = build_model(model_to_instance(read_mps(write_mps(model))))
        assert [r.name for r in rebuilt.rows] == [r.name for r in model.rows]
        for ra, rb in zip(rebuilt.rows, model.rows):
            for (ja, va), (jb, vb) in zip(ra.coeffs, rb.coeffs):
                assert ja == jb
                assert math.isclose(va, vb, rel_tol=1e-12, abs_tol=1e-12)


    def test_rebuild_must_give_the_model(self, t1_model):
        # round-off in a coefficient passes; more, or a changed bound or
        # sparsity, names the first difference
        text = write_mps(t1_model)
        assert model_to_instance(read_mps(text.replace("-30.000000000000004", "-30.0")))
        for old, new, message in (
            ("D_c1_2              CLK_k1              0.0", "D_c1_2  CLK_k1  0.001",
             "row CLK_k1 entry 2 coefficient 0.001 against 0.0"),
            ("    D_c1_0              IMP                 0.0\n", "",
             "row IMP entry count 2 against 3"),
            (" UP BND                 D_c1_2              1.0", " UP BND  D_c1_2  2.0",
             "column D_c1_2 upper bound 2.0 against 1.0"),
            ("BUD_k1              100.0", "BUD_k1              100.0\n    RHS  CLK_k1  1.0",
             "row CLK_k1 right-hand side 1.0 against 0.0"),
        ):
            assert old in text
            with pytest.raises(ValueError, match=f"^no instance gives this model .*: {message}$"):
                model_to_instance(read_mps(text.replace(old, new)))

    def test_a_campaign_without_budget_entries_is_named(self):
        text = "\n".join([
            "NAME          BIDOPT",
            "ROWS",
            " N  COST",
            " L  IMP",
            "COLUMNS",
            "    D_a_0               IMP                 1.0",
            "RHS",
            "    RHS                 IMP                 1.0",
            "BOUNDS",
            " UP BND                 D_a_0               1.0",
            "SOS",
            " S1 S_a",
            "    D_a_0               0.0",
            "ENDATA",
        ])
        model = read_mps(text)
        with pytest.raises(ValueError, match=r"^campaign a: no member has a budget-row \(BUD_\) entry$"):
            model_to_instance(model)


class TestSolutionFile:
    def test_t1_golden(self, t1_model):
        report, values = branch_and_bound(t1_model, strategy="none", limits=PROVE)
        assert write_solution(report, values, t1_model, omit_timing=True) == T1_SOLUTION

    def test_read_back(self):
        doc = read_solution(T1_SOLUTION)
        assert doc["status"] == "optimal"
        assert doc["objective"] == 50.0
        assert doc["seconds"] is None
        assert doc["nodes"] == 3
        assert doc["sos_type"] == 1
        assert doc["columns"] == {"D_c1_1": 1.0}
        assert doc["bids"] == {"c1": 0.4}

    def test_timing_present_when_not_omitted(self, t1_model):
        report, values = branch_and_bound(t1_model, strategy="none", limits=PROVE)
        doc = read_solution(write_solution(report, values, t1_model))
        assert doc["seconds"] is not None and doc["seconds"] >= 0.0

    def test_no_incumbent_writes_placeholders(self, t1_model):
        report, values = branch_and_bound(
            t1_model, limits=SearchLimits(node_limit=0, first_solution=False)
        )
        text = write_solution(report, values, t1_model, omit_timing=True)
        doc = read_solution(text)
        assert doc["status"] == "limit"
        assert doc["objective"] is None
        assert doc["degradation_pct"] is None
        assert doc["columns"] == {} and doc["bids"] == {}

    def test_sos2_bid_line_interpolates(self, t1_model):
        model = relax_to_sos2(t1_model)
        report, values = branch_and_bound(model, limits=PROVE)
        doc = read_solution(write_solution(report, values, model, omit_timing=True))
        assert math.isclose(doc["bids"]["c1"], 0.536363636364, rel_tol=1e-9)
        assert doc["sos_type"] == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("COLUMN D_c1_1", "expected 'COLUMN <name> <value>'"),
            ("BID c1", "expected 'BID <campaign> <value>'"),
            ("OBJECTIVE", "expected 'OBJECTIVE <value>'"),
            ("WHAT 3", "unknown record"),
        ],
    )
    def test_read_errors(self, line, message):
        with pytest.raises(ValueError, match=message):
            read_solution(T1_SOLUTION + line + "\n")


class TestVerifySolution:
    @staticmethod
    def columns_for(instance, assignment):
        cols = {}
        for c in instance.campaigns:
            for j in range(len(c.ret)):
                cols[f"D_{c.id}_{j}"] = 1.0 if assignment.get(c.id) == j else 0.0
        return cols

    def test_clean_solution(self, t1_instance):
        cols = self.columns_for(t1_instance, {"c1": 1})
        assert verify_solution(t1_instance, cols, sos_type=1) == []

    def test_overspend_detected(self, t1_instance):
        cols = self.columns_for(t1_instance, {"c1": 2})  # spend 160 > 100
        problems = verify_solution(t1_instance, cols, sos_type=1)
        assert any("BUD_k1" in p for p in problems)

    def test_convexity_break_detected(self, t1_instance):
        cols = self.columns_for(t1_instance, {"c1": 1})
        cols["D_c1_0"] = 0.5
        problems = verify_solution(t1_instance, cols, sos_type=1)
        assert any("CVX_c1" in p for p in problems)

    def test_sos1_violation_detected(self, t1_instance):
        cols = {"D_c1_0": 0.6, "D_c1_1": 0.4, "D_c1_2": 0.0}
        problems = verify_solution(t1_instance, cols, sos_type=1)
        assert any("S_c1" in p for p in problems)
        # the same point is fine as SOS2 (adjacent pair)
        assert verify_solution(t1_instance, cols, sos_type=2) == []

    def test_sos2_adjacency_enforced(self, nonadjacent_instance):
        cols = {"D_c1_0": 0.0, "D_c1_1": 0.5, "D_c1_2": 0.0, "D_c1_3": 0.5}
        problems = verify_solution(nonadjacent_instance, cols, sos_type=2)
        assert any("S_c1" in p for p in problems)

    def test_unknown_column_detected(self, t1_instance):
        cols = self.columns_for(t1_instance, {"c1": 1})
        cols["D_cX_1"] = 1.0
        problems = verify_solution(t1_instance, cols)
        assert any("unknown column" in p for p in problems)

    def test_bound_violation_detected(self, t1_instance):
        cols = self.columns_for(t1_instance, {"c1": 1})
        cols["D_c1_1"] = 1.5
        problems = verify_solution(t1_instance, cols)
        assert any("outside [0, 1]" in p for p in problems)

    def test_nan_value_is_out_of_range(self):
        # every comparison with NaN is false: only an explicit range check
        # catches it
        instance = generate_instance(GenParams(businesses=1, campaigns_per_business=2, seed=1))
        cols = {"D_b1_c1_1": math.nan, "D_b1_c2_0": 1.0}
        problems = verify_solution(instance, cols, sos_type=1)
        assert any(p.startswith("column D_b1_c1_1:") and "outside [0, 1]" in p for p in problems)

    def test_impression_cap_detected(self, t1_instance):
        tight = dataclasses.replace(t1_instance, impression_budget=50.0)
        cols = self.columns_for(tight, {"c1": 1})  # 100 impressions > 50
        problems = verify_solution(tight, cols, sos_type=1)
        assert any("IMP" in p for p in problems)

    def test_missing_columns_default_to_zero(self, t1_instance):
        # only the slack member is given; the rest count as zero
        assert verify_solution(t1_instance, {"D_c1_0": 1.0}, sos_type=1) == []
        # with nothing given at all the convexity row must fail
        problems = verify_solution(t1_instance, {}, sos_type=1)
        assert any("CVX_c1" in p for p in problems)


class TestBenchmark:
    def test_t1_csv_golden(self, t1_instance):
        csv_text = run_benchmark([t1_instance], omit_timing=True)
        assert csv_text == (
            "model,sos_count,strategy,degradation_pct,first_solution_seconds,"
            "best_known_degradation_pct\n"
            "1,1,1,38.889,-,38.889\n"
            "1,1,2,38.889,-,38.889\n"
            "1,1,3,0.000,-,0.000\n"
        )

    def test_unsolved_rows_use_question_marks(self, t1_instance):
        csv_text = run_benchmark(
            [t1_instance],
            strategies=("none",),
            limits=SearchLimits(node_limit=0, first_solution=False),
        )
        assert csv_text.splitlines()[1] == "1,1,none,????,????,????"

    def test_deterministic_with_omit_timing(self, t1_instance):
        a = run_benchmark([t1_instance], omit_timing=True)
        b = run_benchmark([t1_instance], omit_timing=True)
        assert a == b

    def test_multiple_instances_numbered(self, t1_instance, nonadjacent_instance):
        csv_text = run_benchmark(
            [t1_instance, nonadjacent_instance], strategies=("2",), omit_timing=True
        )
        rows = csv_text.splitlines()
        assert rows[1].startswith("1,1,2,")
        assert rows[2].startswith("2,1,2,")
