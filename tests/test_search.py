import dataclasses
import math

import pytest

from bidopt.generate import GenParams, generate_instance
from bidopt.model import LpColumn, LpModel, LpRow, SosSet, build_model
from bidopt.oracle import enumerate_sos1, enumerate_sos2
from bidopt.search import (
    SearchLimits,
    _pick_violated,
    branch_and_bound,
    current_interval,
    interpolate_bid,
    relax_to_sos2,
    sos_branch,
    sos_satisfied,
    strategy1_fix,
    strategy2_fix,
    strategy3_hotstart,
    violation_measure,
)
from bidopt.simplex import INFEASIBLE, OPTIMAL, LpSolution, SimplexEngine

from conftest import make_nonadjacent_instance, make_rollback_instance, make_t1

FRAC = 900.0 / 11.0
PROVE = SearchLimits(first_solution=False, gap=0.0)


def fake_lp(primal, reduced_costs=None, status=OPTIMAL, objective=0.0):
    n = len(primal)
    return LpSolution(
        status=status,
        objective=objective,
        primal=tuple(primal),
        reduced_costs=tuple(reduced_costs or [0.0] * n),
        duals=(),
        iterations=0,
    )


def t1_sos2_model():
    return relax_to_sos2(build_model(make_t1()))


class TestSatisfaction:
    def test_sos1_two_nonzeros(self, t1_model):
        s = t1_model.sos_sets[0]
        primal = (0.0, 6 / 11, 5 / 11)
        assert not sos_satisfied(s, primal)
        assert violation_measure(s, primal) == 1.0

    def test_sos2_adjacent_pair_ok(self, t1_model):
        s = t1_model.sos_sets[0]
        s2 = relax_to_sos2(t1_model).sos_sets[0]
        primal = (0.0, 6 / 11, 5 / 11)
        assert sos_satisfied(s2, primal)
        assert violation_measure(s2, primal) == 0.0
        assert s.sos_type == 1

    def test_sos2_gap_counts(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        s = model.sos_sets[0]
        assert violation_measure(s, (0.0, 0.5, 0.0, 0.5)) == 1.0
        # a trio always spans more than one interval: excess count plus width
        assert violation_measure(s, (0.0, 0.3, 0.3, 0.4)) == 2.0
        assert violation_measure(s, (0.3, 0.3, 0.4, 0.0)) == 2.0
        assert sos_satisfied(s, (0.0, 0.0, 0.4, 0.6))

    def test_zero_tol_hides_slivers(self, t1_model):
        s = t1_model.sos_sets[0]
        assert sos_satisfied(s, (5e-7, 1.0 - 5e-7, 0.0))
        assert not sos_satisfied(s, (5e-3, 1.0 - 5e-3, 0.0))
        assert sos_satisfied(s, (5e-3, 1.0 - 5e-3, 0.0), zero_tol=1e-2)

    def test_pick_violated_prefers_first_on_ties(self):
        cols = tuple(LpColumn(f"x{j}", 0.0, 0.0, 1.0) for j in range(4))
        sets = (
            SosSet("A", 1, (0, 1), (0.0, 1.0)),
            SosSet("B", 1, (2, 3), (0.0, 1.0)),
        )
        model = LpModel(columns=cols, rows=(), sos_sets=sets)
        primal = (0.5, 0.5, 0.5, 0.5)
        assert _pick_violated(model, primal, 1e-6) is sets[0]
        assert _pick_violated(model, (0.0, 1.0, 0.5, 0.5), 1e-6) is sets[1]
        assert _pick_violated(model, (0.0, 1.0, 0.0, 1.0), 1e-6) is None


class TestStrategy1:
    def test_t1_no_near_one_member(self, t1_model):
        lp = SimplexEngine(t1_model).solve()
        assert max(lp.primal) < 0.95
        assert not strategy1_fix(t1_model, lp)

    def test_slack_member_fixed_without_price_check(self, t1_model):
        lp = fake_lp((0.96, 0.02, 0.02), reduced_costs=(0.0, 10.0, 10.0))
        fixes = strategy1_fix(t1_model, lp)
        assert fixes == {0: (1.0, 1.0), 1: (0.0, 0.0), 2: (0.0, 0.0)}

    def test_non_slack_member_needs_strict_disimprovement(self, t1_model):
        # a sibling with zero reduced cost blocks the fix
        lp = fake_lp((0.0, 0.0, 0.96), reduced_costs=(-120.0, 0.0, 0.0))
        assert not strategy1_fix(t1_model, lp)
        # strictly negative prices on every sibling allow it
        lp = fake_lp((0.0, 0.0, 0.96), reduced_costs=(-120.0, -70.0, 0.0))
        fixes = strategy1_fix(t1_model, lp)
        assert fixes == {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (1.0, 1.0)}

    def test_loose_budget_fixes_top_level(self, t1_instance):
        import dataclasses

        bus = (dataclasses.replace(t1_instance.businesses[0], budget=1000.0),)
        model = build_model(dataclasses.replace(t1_instance, businesses=bus))
        lp = SimplexEngine(model).solve()
        assert lp.primal[2] >= 0.95
        fixes = strategy1_fix(model, lp)
        assert fixes == {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (1.0, 1.0)}

    def test_rc_tol_boundary(self, t1_model):
        # disimprovement must exceed rc_tol strictly
        lp = fake_lp((0.0, 0.0, 0.96), reduced_costs=(-1e-5, -70.0, 0.0))
        assert not strategy1_fix(t1_model, lp, rc_tol=1e-5)
        lp = fake_lp((0.0, 0.0, 0.96), reduced_costs=(-1.1e-5, -70.0, 0.0))
        assert strategy1_fix(t1_model, lp, rc_tol=1e-5)


class TestStrategy2:
    def test_t1_zeroes_outside_span(self, t1_model):
        lp = SimplexEngine(t1_model).solve()
        fixes = strategy2_fix(t1_model, lp)
        assert fixes == {0: (0.0, 0.0)}

    def test_exactly_one_nonzero_rounds_whole_set(self, t1_model):
        fixes = strategy2_fix(t1_model, fake_lp((0.0, 1.0, 0.0)))
        assert fixes == {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (0.0, 0.0)}

    def test_full_span_leaves_nothing_to_fix(self, t1_model):
        assert not strategy2_fix(t1_model, fake_lp((0.5, 0.0, 0.5)))

    def test_all_zero_set_untouched(self, t1_model):
        assert not strategy2_fix(t1_model, fake_lp((0.0, 0.0, 0.0)))


class TestRollback:
    def test_rounding_can_break_the_lp(self, rollback_instance):
        model = build_model(rollback_instance)
        engine = SimplexEngine(model)
        root = engine.solve()
        assert root.status == OPTIMAL
        assert math.isclose(root.objective, 100.0000005, rel_tol=1e-12)

        fixes = strategy2_fix(model, root)
        assert len(fixes) == 4  # both sets look single-valued
        broken = engine.solve(bounds=fixes, warm=root.basis)
        assert broken.status == INFEASIBLE

    def test_search_recovers_after_rollback(self, rollback_instance):
        model = build_model(rollback_instance)
        report, values = branch_and_bound(model, strategy="2", limits=PROVE)
        assert report.status == "optimal"
        assert values is not None
        # the sub-tolerance sliver counts as zero, so the root point itself
        # is accepted; it beats the pure single-level optimum
        obj1, _ = enumerate_sos1(rollback_instance)
        assert report.incumbent_objective >= obj1 - 1e-9
        for s in model.sos_sets:
            assert sos_satisfied(s, values)


class TestRelaxAndInterval:
    def test_relax_flips_every_set(self, t1_model):
        relaxed = relax_to_sos2(t1_model)
        assert all(s.sos_type == 2 for s in relaxed.sos_sets)
        assert relaxed.columns == t1_model.columns
        assert relaxed.rows == t1_model.rows

    def test_relax_rejects_mixed_input(self, t1_model):
        with pytest.raises(ValueError, match="all-SOS1"):
            relax_to_sos2(relax_to_sos2(t1_model))

    def test_current_interval_brackets_average(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        s = model.sos_sets[0]
        assert current_interval(s, (0.0, 0.5, 0.0, 0.5)) == (2, 3)
        assert current_interval(s, (0.0, 1.0, 0.0, 0.0)) == (1, 2)
        assert current_interval(s, (1.0, 0.0, 0.0, 0.0)) == (0, 1)


class TestStrategy3:
    def test_requires_sos2(self, t1_model):
        lp = SimplexEngine(t1_model).solve()
        with pytest.raises(ValueError, match="SOS2"):
            strategy3_hotstart(t1_model, lp, SimplexEngine(t1_model))

    def test_satisfied_set_gets_flags_only(self):
        model = t1_sos2_model()
        engine = SimplexEngine(model)
        root = engine.solve()
        fixes, hot = strategy3_hotstart(model, root, engine)
        assert fixes == {0: (0.0, 0.0)}
        assert hot is not None
        assert math.isclose(hot.objective, FRAC, rel_tol=1e-9)

    def test_unsatisfied_set_narrows_temporarily(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        engine = SimplexEngine(model)
        root = engine.solve()
        # the relaxation pays half of level 1 and half of level 3
        assert math.isclose(root.objective, 21.0, rel_tol=1e-9)
        assert math.isclose(root.primal[1], 0.5, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(root.primal[3], 0.5, rel_tol=0, abs_tol=1e-9)

        # column 1 is narrowed away for the resolve only: the zero flag
        # on column 0 is all the search keeps
        fixes, hot = strategy3_hotstart(model, root, engine)
        assert fixes == {0: (0.0, 0.0)}
        assert hot is not None
        assert hot.primal[1] == 0.0
        assert math.isclose(hot.objective, 13.0, rel_tol=1e-9)

        obj2, _ = enumerate_sos2(nonadjacent_instance)
        assert math.isclose(hot.objective, obj2, rel_tol=1e-9)


class TestBranching:
    def test_t1_split(self, t1_model):
        engine = SimplexEngine(t1_model)
        root_lp = engine.solve()
        from bidopt.search import Node

        node = Node({}, math.inf, 0)
        left, right = sos_branch(node, t1_model.sos_sets[0], root_lp, first_order=1)
        assert left.bounds == {2: (0.0, 0.0)}
        assert right.bounds == {0: (0.0, 0.0), 1: (0.0, 0.0)}
        assert left.lp_bound == right.lp_bound == root_lp.objective
        assert (left.creation_order, right.creation_order) == (1, 2)
        assert left.warm == root_lp.basis

    def test_sos2_split_keeps_cut_member_free(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        root_lp = SimplexEngine(model).solve()
        from bidopt.search import Node

        node = Node({}, root_lp.objective, 0)
        left, right = sos_branch(node, model.sos_sets[0], root_lp, first_order=1)
        # split at position 2: left forbids above it, right forbids below it
        assert left.bounds == {3: (0.0, 0.0)}
        assert right.bounds == {0: (0.0, 0.0), 1: (0.0, 0.0)}

    def test_all_zero_set_cannot_branch(self, t1_model):
        from bidopt.search import Node

        node = Node({}, 0.0, 0)
        with pytest.raises(ValueError, match="all-zero"):
            sos_branch(node, t1_model.sos_sets[0], fake_lp((0.0, 0.0, 0.0)), 1)


class TestInterpolateBid:
    def test_weighted_mix(self):
        model = t1_sos2_model()
        _, values = branch_and_bound(model, limits=PROVE)
        bid = interpolate_bid(model.sos_sets[0], values)
        assert math.isclose(bid, 0.5363636363636364, rel_tol=1e-9)

    def test_single_level(self, t1_model):
        s = t1_model.sos_sets[0]
        assert interpolate_bid(s, (0.0, 1.0, 0.0)) == 0.40
        assert interpolate_bid(s, (0.0, 0.0, 1.0)) == 0.70

    def test_none_cases(self, t1_model):
        s = t1_model.sos_sets[0]
        assert interpolate_bid(s, (1.0, 0.0, 0.0)) is None  # slack only
        assert interpolate_bid(s, (0.0, 0.0, 0.0)) is None  # empty
        import dataclasses

        no_bids = dataclasses.replace(s, bids=None)
        assert interpolate_bid(no_bids, (0.0, 1.0, 0.0)) is None

    def test_unsatisfied_raises(self, t1_model):
        s = t1_model.sos_sets[0]
        with pytest.raises(ValueError, match="not SOS2-satisfied"):
            interpolate_bid(s, (0.5, 0.0, 0.5))
        with pytest.raises(ValueError, match="not SOS2-satisfied"):
            interpolate_bid(s, (0.2, 0.4, 0.4))

    def test_accepts_lp_solution_object(self, t1_model):
        s = relax_to_sos2(t1_model).sos_sets[0]
        lp = SimplexEngine(t1_model).solve()
        bid = interpolate_bid(s, lp)
        assert math.isclose(bid, 0.5363636363636364, rel_tol=1e-9)


class TestBranchAndBound:
    @pytest.mark.parametrize("strategy", ["none", "1", "2"])
    def test_t1_sos1_all_strategies_prove_50(self, t1_model, strategy):
        report, values = branch_and_bound(t1_model, strategy=strategy, limits=PROVE)
        assert report.status == "optimal"
        assert math.isclose(report.incumbent_objective, 50.0, rel_tol=1e-9)
        assert math.isclose(report.lp_relaxation_objective, FRAC, rel_tol=1e-12)
        assert math.isclose(report.degradation_pct, 350.0 / 9.0, rel_tol=1e-9)
        assert report.sos_type_used == 1
        assert report.strategy == strategy
        assert values is not None
        assert math.isclose(values[1], 1.0, rel_tol=1e-9)

    def test_t1_sos2_root_already_feasible(self):
        report, values = branch_and_bound(t1_sos2_model(), limits=PROVE)
        assert report.status == "optimal"
        assert math.isclose(report.incumbent_objective, FRAC, rel_tol=1e-9)
        assert report.degradation_pct == 0.0
        assert report.sos_type_used == 2
        assert report.nodes == 1

    def test_strategy3_needs_sos2(self, t1_model):
        with pytest.raises(ValueError, match="SOS2"):
            branch_and_bound(t1_model, strategy="3")

    def test_strategy3_first_solution_skips_tree(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        report, values = branch_and_bound(model, strategy="3")
        assert report.status == "feasible"
        assert report.nodes == 0
        assert math.isclose(report.incumbent_objective, 13.0, rel_tol=1e-9)
        assert report.first_solution_seconds is not None

    def test_strategy3_prove_matches_oracle(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        report, _ = branch_and_bound(model, strategy="3", limits=PROVE)
        obj2, _ = enumerate_sos2(nonadjacent_instance)
        assert report.status == "optimal"
        assert math.isclose(report.incumbent_objective, obj2, rel_tol=1e-9)

    def test_first_solution_default(self, t1_model):
        report, values = branch_and_bound(t1_model)
        assert report.status == "feasible"
        assert math.isclose(report.incumbent_objective, 50.0, rel_tol=1e-9)
        assert math.isclose(
            report.first_incumbent_objective, report.incumbent_objective, rel_tol=1e-12
        )
        assert report.first_solution_seconds is not None

    def test_node_limit_without_incumbent(self, t1_model):
        report, values = branch_and_bound(
            t1_model, limits=SearchLimits(node_limit=1, first_solution=False)
        )
        assert report.status == "limit"
        assert values is None
        assert report.incumbent_objective is None
        assert report.degradation_pct is None
        assert report.nodes == 1

    def test_node_limit_zero(self, t1_model):
        report, values = branch_and_bound(
            t1_model, limits=SearchLimits(node_limit=0, first_solution=False)
        )
        assert (report.status, report.nodes, values) == ("limit", 0, None)

    def test_time_limit_zero(self, t1_model):
        report, values = branch_and_bound(
            t1_model, limits=SearchLimits(time_limit=0.0, first_solution=False)
        )
        assert report.status == "limit"
        assert values is None

    def test_wide_gap_still_returns_incumbent(self, t1_model):
        report, values = branch_and_bound(
            t1_model, limits=SearchLimits(gap=1.0, first_solution=False)
        )
        assert report.status == "optimal"
        assert math.isclose(report.incumbent_objective, 50.0, rel_tol=1e-9)

    def test_infeasible_model(self):
        model = LpModel(
            columns=(LpColumn("x", 1.0, 0.0, 1.0),),
            rows=(LpRow("r", "E", 2.0, ((0, 1.0),)),),
            sos_sets=(SosSet("S", 1, (0,), (0.0,)),),
        )
        report, values = branch_and_bound(model, limits=PROVE)
        assert report.status == "infeasible"
        assert values is None
        assert report.incumbent_objective is None

    def test_bad_strategy_name(self, t1_model):
        with pytest.raises(ValueError, match="strategy"):
            branch_and_bound(t1_model, strategy="4")

    def test_integer_strategy_accepted(self, t1_model):
        report, _ = branch_and_bound(t1_model, strategy=2, limits=PROVE)
        assert report.strategy == "2"

    def test_deterministic(self, t1_model):
        runs = [branch_and_bound(t1_model, strategy="2", limits=PROVE) for _ in range(2)]
        (r1, v1), (r2, v2) = runs
        assert v1 == v2
        for field in (
            "status",
            "incumbent_objective",
            "lp_relaxation_objective",
            "degradation_pct",
            "nodes",
            "sos_count",
            "strategy",
            "sos_type_used",
            "first_incumbent_objective",
        ):
            assert getattr(r1, field) == getattr(r2, field), field

    @pytest.mark.parametrize("seed, nodes", [(0, 108), (1, 148)])
    def test_visit_order_pinned(self, seed, nodes):
        # Under a nonzero gap the node count depends on the order nodes
        # are visited in: depth-first until the first incumbent,
        # best-bound after, ties broken by creation order.
        params = GenParams(
            businesses=2, campaigns_per_business=6, levels_per_campaign=4,
            budget_tightness=0.3, seed=seed,
        )
        model = build_model(generate_instance(params))
        report, _ = branch_and_bound(model, "none", SearchLimits(first_solution=False))
        assert report.nodes == nodes

    def test_incumbent_always_verifies(self, rollback_instance, nonadjacent_instance):
        for inst, sos_type in ((rollback_instance, 1), (nonadjacent_instance, 2)):
            model = build_model(inst)
            if sos_type == 2:
                model = relax_to_sos2(model)
            report, values = branch_and_bound(model, limits=PROVE)
            assert values is not None
            for s in model.sos_sets:
                assert sos_satisfied(s, values)


class SolveOnlyEngine:
    """Exactly the engine interface that branch_and_bound may rely on."""

    def __init__(self, model):
        self._engine = SimplexEngine(model)
        self.calls = 0

    def solve(self, bounds=None, warm=None, max_iterations=None):
        self.calls += 1
        return self._engine.solve(
            bounds=bounds, warm=warm, max_iterations=max_iterations
        )


# Solves in the fixing pass: the re-solve under the fixes of strategies
# 1 and 2 when they fix anything; for strategy 3 the hot start, then the
# re-solve under its zero flags.
FIXING_SOLVES = {
    make_t1: {"none": 0, "1": 0, "2": 1, "3": 2},
    make_rollback_instance: {"none": 0, "1": 1, "2": 1, "3": 2},
}


class TestEngineInjection:
    """Every run makes one root solve, then the fixing solves, then one
    solve per node after the root, which reuses the fixed root LP."""

    @pytest.mark.parametrize("make_instance", [make_t1, make_rollback_instance])
    @pytest.mark.parametrize("strategy", ["none", "1", "2", "3"])
    def test_injected_engine_gives_same_result(self, make_instance, strategy):
        model = build_model(make_instance())
        if strategy == "3":
            model = relax_to_sos2(model)
        proxy = SolveOnlyEngine(model)
        got, got_values = branch_and_bound(model, strategy, PROVE, engine=proxy)
        want, want_values = branch_and_bound(model, strategy, PROVE)
        fixing = FIXING_SOLVES[make_instance][strategy]
        assert proxy.calls == 1 + fixing + max(got.nodes - 1, 0)
        assert got_values == want_values
        untimed = dict(total_seconds=0.0, first_solution_seconds=None)
        assert dataclasses.replace(got, **untimed) == dataclasses.replace(want, **untimed)
        assert (got.first_solution_seconds is None) == (want.first_solution_seconds is None)

    def test_strategy3_first_solution_skips_fixing_resolve(self):
        # the hot start is the first solution: root and hot start only
        model = relax_to_sos2(build_model(make_nonadjacent_instance()))
        proxy = SolveOnlyEngine(model)
        report, _ = branch_and_bound(model, "3", engine=proxy)
        assert (report.status, report.nodes) == ("feasible", 0)
        assert proxy.calls == 2
