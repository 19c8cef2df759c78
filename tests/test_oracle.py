import dataclasses
import math

import pytest

from bidopt.fileio import verify_solution
from bidopt.generate import GenParams, generate_instance
from bidopt.model import Business, Campaign, Instance
from bidopt.oracle import enumerate_sos1, enumerate_sos2

from conftest import make_overflow_instance

FRAC = 900.0 / 11.0


class TestT1:
    def test_single_level_choice(self, t1_instance):
        obj, choice = enumerate_sos1(t1_instance)
        assert obj == 50.0
        assert choice == {"c1": 1}

    def test_adjacent_mix(self, t1_instance):
        obj, assign = enumerate_sos2(t1_instance)
        assert math.isclose(obj, FRAC, rel_tol=1e-9)
        levels, weights = assign["c1"]
        assert levels == (1, 2)
        assert math.isclose(weights[0], 6.0 / 11.0, rel_tol=0, abs_tol=1e-7)
        assert math.isclose(weights[1], 5.0 / 11.0, rel_tol=0, abs_tol=1e-7)
        assert math.isclose(sum(weights), 1.0, rel_tol=0, abs_tol=1e-9)


class TestEdgeCases:
    def test_all_slack_is_zero(self):
        inst = Instance(
            businesses=(Business("k", 10.0, 1.0),),
            campaigns=(Campaign("c", "k", 0.1, (0.0,), (0.0,), (0.0,), (None,)),),
            impression_budget=100.0,
        )
        assert enumerate_sos1(inst) == (0.0, {"c": 0})
        obj2, assign2 = enumerate_sos2(inst)
        assert obj2 == 0.0
        assert assign2["c"] == ((0,), (1.0,))

    def test_no_campaigns(self):
        inst = Instance(businesses=(Business("k", 10.0, 1.0),), campaigns=(), impression_budget=1.0)
        assert enumerate_sos1(inst) == (0.0, {})
        assert enumerate_sos2(inst) == (0.0, {})

    def test_zero_impression_budget_forces_slack(self, t1_instance):
        inst = dataclasses.replace(t1_instance, impression_budget=0.0)
        obj, choice = enumerate_sos1(inst)
        assert obj == 0.0
        assert choice == {"c1": 0}
        obj2, _ = enumerate_sos2(inst)
        assert abs(obj2) <= 1e-9

    def test_cap_exceeded(self, t1_instance, monkeypatch):
        monkeypatch.setattr("bidopt.oracle.ENUM_CAP", 2)
        with pytest.raises(ValueError, match="exceeds cap"):
            enumerate_sos1(t1_instance)
        monkeypatch.setattr("bidopt.oracle.ENUM_CAP", 1)
        with pytest.raises(ValueError, match="exceeds cap"):
            enumerate_sos2(t1_instance)

    def test_row_masses_that_overflow(self):
        # the slacks must stay finite, so that the click row forbids level 1
        inst = make_overflow_instance()
        assert enumerate_sos1(inst) == (0.0, {"c1": 0, "c2": 0})
        with pytest.raises(ValueError, match="the business b budget row's constant overflows"):
            enumerate_sos2(inst)

    def test_sos1_choice_passes_verifier(self, t1_instance):
        _, choice = enumerate_sos1(t1_instance)
        columns = {}
        for c in t1_instance.campaigns:
            for j in range(len(c.ret)):
                columns[f"D_{c.id}_{j}"] = 1.0 if j == choice[c.id] else 0.0
        assert verify_solution(t1_instance, columns, sos_type=1) == []

    def test_sos2_assignment_passes_verifier(self, t1_instance):
        _, assign = enumerate_sos2(t1_instance)
        columns = {}
        for c in t1_instance.campaigns:
            lv, wt = assign[c.id]
            for j in range(len(c.ret)):
                columns[f"D_{c.id}_{j}"] = 0.0
            for j, w in zip(lv, wt):
                columns[f"D_{c.id}_{j}"] = w
        assert verify_solution(t1_instance, columns, sos_type=2) == []


class TestRandomised:
    def test_sos2_at_least_sos1(self):
        for seed in range(10):
            params = GenParams(
                businesses=2,
                campaigns_per_business=2,
                levels_per_campaign=3,
                budget_tightness=0.6,
                impression_tightness=1.0,
                seed=seed,
            )
            inst = generate_instance(params)
            obj1, _ = enumerate_sos1(inst)
            obj2, _ = enumerate_sos2(inst)
            slack = 1e-9 * max(1.0, abs(obj1))
            assert obj2 >= obj1 - slack, f"seed {seed}: {obj2} < {obj1}"

    def test_deterministic(self):
        params = GenParams(
            businesses=2,
            campaigns_per_business=2,
            levels_per_campaign=4,
            budget_tightness=0.5,
            impression_tightness=1.0,
            seed=3,
        )
        inst = generate_instance(params)
        assert enumerate_sos1(inst) == enumerate_sos1(inst)
        assert enumerate_sos2(inst) == enumerate_sos2(inst)
