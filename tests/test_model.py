import dataclasses
import math
import re

import numpy as np
import pytest

import bidopt.fileio
import bidopt.model
from bidopt.generate import scale_suite
from bidopt.model import (
    Business,
    Campaign,
    Instance,
    LpColumn,
    LpModel,
    LpRow,
    build_model,
    validate_instance,
)
from bidopt.search import relax_to_sos2

from conftest import from_tuples, make_t1, sets_of


def tuple_build(instance: Instance) -> LpModel:
    """``build_model`` as a loop over campaigns and levels that makes one
    ``LpColumn`` and ``LpRow`` at a time: the reference for the array
    build."""
    columns, col_of = [], {}
    for c in instance.campaigns:
        for j, ret in enumerate(c.ret):
            col_of[(c.id, j)] = len(columns)
            columns.append(LpColumn(f"D_{c.id}_{j}", ret, 0.0, 1.0))
    rows = [
        LpRow(f"CVX_{c.id}", "E", 1.0, tuple((col_of[(c.id, j)], 1.0) for j in range(len(c.ret))))
        for c in instance.campaigns
    ]
    for b in instance.businesses:
        bud, clk = [], []
        for c in instance.campaigns:
            if c.business_id != b.id:
                continue
            for j in range(len(c.ret)):
                p, a = c.impressions[j], c.ad_value[j]
                bud.append((col_of[(c.id, j)], p * a))
                clk.append((col_of[(c.id, j)], p * (a - b.cpc * c.ctr)))
        rows.append(LpRow(f"BUD_{b.id}", "L", b.budget, tuple(sorted(bud))))
        rows.append(LpRow(f"CLK_{b.id}", "L", 0.0, tuple(sorted(clk))))
    imp = tuple(
        (col_of[(c.id, j)], c.impressions[j])
        for c in instance.campaigns
        for j in range(len(c.ret))
    )
    rows.append(LpRow("IMP", "L", instance.impression_budget, imp))
    sets = tuple((f"S_{c.id}", len(c.ret)) for c in instance.campaigns)
    bids = [math.nan if b is None else b for c in instance.campaigns for b in c.bid]
    return from_tuples(tuple(columns), tuple(rows), sets, bids=np.array(bids, float))


ARRAYS = ("objective", "lower", "upper", "rhs", "indptr", "indices", "data")


def replace_campaign(inst, cid, **changes):
    camps = tuple(
        dataclasses.replace(c, **changes) if c.id == cid else c for c in inst.campaigns
    )
    return dataclasses.replace(inst, campaigns=camps)


class TestValidateInstance:
    def test_well_formed(self, t1_instance):
        assert validate_instance(t1_instance) == []

    def test_negative_impression_budget(self, t1_instance):
        with pytest.raises(ValueError, match="impression_budget"):
            dataclasses.replace(t1_instance, impression_budget=-1.0)

    def test_slack_level_with_return(self, t1_instance):
        with pytest.raises(ValueError, match="slack level must be all-zero"):
            replace_campaign(t1_instance, "c1", ret=(5.0, 50.0, 120.0))

    def test_negative_budget(self, t1_instance):
        bus = (dataclasses.replace(t1_instance.businesses[0], budget=-1.0),)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            dataclasses.replace(t1_instance, businesses=bus)

    def test_ctr_out_of_range(self, t1_instance):
        with pytest.raises(ValueError, match=re.escape("ctr must be in [0, 1]")):
            replace_campaign(t1_instance, "c1", ctr=1.5)

    @pytest.mark.parametrize("field", ["ret", "ad_value", "impressions", "bid"])
    def test_level_tuples_differ_in_length(self, t1_instance, field):
        short = getattr(t1_instance.campaigns[0], field)[:2]
        with pytest.raises(
            ValueError, match="^invalid instance: campaign c1: level tuples differ in length$"
        ):
            replace_campaign(t1_instance, "c1", **{field: short})

    def test_unknown_business(self, t1_instance):
        with pytest.raises(ValueError, match="unknown business"):
            replace_campaign(t1_instance, "c1", business_id="ghost")

    def test_duplicate_ids(self, t1_instance):
        inst = t1_instance
        with pytest.raises(ValueError, match="duplicate id"):
            dataclasses.replace(inst, businesses=inst.businesses + (inst.businesses[0],))
        with pytest.raises(ValueError, match="duplicate id"):
            dataclasses.replace(inst, campaigns=inst.campaigns + (inst.campaigns[0],))

    def test_negative_level_fields(self, t1_instance):
        with pytest.raises(ValueError, match="ret must be >= 0"):
            replace_campaign(t1_instance, "c1", ret=(0.0, -1.0, 120.0))

    def test_instance_checks_itself_when_made(self, t1_instance):
        with pytest.raises(ValueError, match=(
            r"^invalid instance: business k1: budget must be >= 0; "
            r"campaign c1: ctr must be in \[0, 1\]$"
        )):
            Instance(
                businesses=(Business("k1", -1.0, 2.0),),
                campaigns=(dataclasses.replace(t1_instance.campaigns[0], ctr=1.5),),
                impression_budget=1000.0,
            )

    def test_runs_once_from_file_to_relaxed_model(self, t1_instance, tmp_path, monkeypatch):
        calls = []

        def counting(check):
            def wrapper(instance):
                calls.append(instance)
                return check(instance)
            return wrapper

        for module in (bidopt.model, bidopt.fileio):
            if hasattr(module, "validate_instance"):
                monkeypatch.setattr(module, "validate_instance", counting(module.validate_instance))
        path = tmp_path / "t1.json"
        path.write_text(bidopt.fileio.instance_to_json(t1_instance))
        relax_to_sos2(build_model(bidopt.fileio.read_instance(str(path))))
        assert len(calls) == 1


class TestBuildModel:
    def test_t1_shape(self, t1_model):
        m = t1_model
        assert [c.name for c in m.columns] == ["D_c1_0", "D_c1_1", "D_c1_2"]
        assert [r.name for r in m.rows] == ["CVX_c1", "BUD_k1", "CLK_k1", "IMP"]
        assert [r.sense for r in m.rows] == ["E", "L", "L", "L"]

    def test_t1_columns(self, t1_model):
        for col, obj in zip(t1_model.columns, (0.0, 50.0, 120.0)):
            assert col.objective == obj
            assert col.lower == 0.0 and col.upper == 1.0

    def test_t1_rows(self, t1_model):
        rows = {r.name: r for r in t1_model.rows}
        cvx = rows["CVX_c1"]
        assert cvx.rhs == 1.0
        assert cvx.coeffs == ((0, 1.0), (1, 1.0), (2, 1.0))

        bud = rows["BUD_k1"]
        assert bud.rhs == 100.0
        # spend per level: impressions * ad_value
        assert bud.coeffs == ((0, 0.0), (1, 50.0), (2, 160.0))

        clk = rows["CLK_k1"]
        assert clk.rhs == 0.0
        got = dict(clk.coeffs)
        # impressions * (ad_value - cpc * ctr): 100*(0.5-0.8) and 200*(0.8-0.8)
        assert got[0] == 0.0
        assert math.isclose(got[1], -30.0, rel_tol=0, abs_tol=1e-12)
        assert abs(got[2]) <= 1e-12

        imp = rows["IMP"]
        assert imp.rhs == 1000.0
        assert imp.coeffs == ((0, 0.0), (1, 100.0), (2, 200.0))

    def test_t1_sos(self, t1_model):
        assert t1_model.sos_names == ("S_c1",)
        assert t1_model.sos_type == 1
        assert t1_model.sos_starts.tolist() == [0, 3]
        assert np.isnan(t1_model.bids[0]) and t1_model.bids[1:].tolist() == [0.40, 0.70]

    def test_rows_keep_explicit_zeros_in_column_order(self, t1_model):
        for row in t1_model.rows:
            positions = [j for j, _ in row.coeffs]
            assert positions == sorted(positions)

    def test_invalid_instance_raises(self, t1_instance):
        # the instance raises when it is made, before build_model sees it
        with pytest.raises(ValueError, match="invalid instance"):
            build_model(dataclasses.replace(t1_instance, impression_budget=-1.0))

    def test_arrays_match_the_loop_build_bit_for_bit(self, suite1, scale_base):
        for inst in [make_t1(), *suite1, scale_suite(scale_base, [300])[0]]:
            got, want = build_model(inst), tuple_build(inst)
            assert got.column_names == want.column_names
            assert (got.row_names, got.senses) == (want.row_names, want.senses)
            for name in (*ARRAYS, "sos_starts", "bids"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert not a.flags.writeable and a.flags.c_contiguous
            assert got.sos_names == want.sos_names
            assert (got.columns, got.rows) == (want.columns, want.rows)

    def test_tuple_views_round_trip(self, t1_model):
        twin = from_tuples(t1_model.columns, t1_model.rows, sets_of(t1_model))
        assert (twin.columns, twin.rows) == (t1_model.columns, t1_model.rows)
        for name in ARRAYS:
            assert getattr(twin, name).tobytes() == getattr(t1_model, name).tobytes()

    def test_scale_model_counts(self, scale_base):
        # the benchmark's traced run reports these three from the views
        model = build_model(scale_suite(scale_base, [2704])[0])
        assert len(model.rows) == 2725
        assert len(model.columns) == 12192
        assert sum(len(r.coeffs) for r in model.rows) == 48768

    def test_counts_two_business(self):
        t1 = make_t1()
        curve = ((0.0, 7.0), (0.0, 0.2), (0.0, 30.0), (None, None))
        inst = Instance(
            businesses=t1.businesses + (Business("k2", 10.0, 1.0),),
            campaigns=t1.campaigns
            + (
                Campaign("c2", "k2", 0.1, *curve),
                Campaign("c3", "k2", 0.1, *curve),
            ),
            impression_budget=500.0,
        )
        m = build_model(inst)
        # columns: sum over campaigns of (levels including slack)
        assert len(m.columns) == 3 + 2 + 2
        # rows: one CVX per campaign, BUD+CLK per business, one IMP
        assert len(m.rows) == 3 + 2 * 2 + 1
        assert m.sos_names == ("S_c1", "S_c2", "S_c3")
        assert m.sos_starts.tolist() == [0, 3, 5, 7]
