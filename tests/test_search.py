import dataclasses
import hashlib
import itertools
import math
import struct
import time

import numpy as np
import pytest

from bidopt import search, simplex
from bidopt.generate import GenParams, generate_instance, scale_suite
from bidopt.model import LpColumn, LpRow, build_model
from bidopt.oracle import enumerate_sos1, enumerate_sos2
from bidopt.search import (
    RC_TOL,
    ZERO_TOL,
    SearchLimits,
    _pick_violated,
    branch_and_bound,
    current_interval,
    interpolate_bids,
    relax_to_sos2,
    sos_branch,
    sos_satisfied,
    sos_scan,
    strategy1_fix,
    strategy2_fix,
    strategy3_hotstart,
    violation_measure,
)
from bidopt.simplex import INFEASIBLE, OPTIMAL, LpSolution, SimplexEngine

from conftest import (
    from_tuples,
    make_nonadjacent_instance,
    make_rollback_instance,
    make_t1,
    same_solution,
)

FRAC = 900.0 / 11.0
PROVE = SearchLimits(first_solution=False, gap=0.0)
# One instance of the benchmark's tree workload: 433 nodes under --prove.
TREE_PARAMS = GenParams(
    businesses=3, campaigns_per_business=12, levels_per_campaign=4,
    budget_tightness=0.3, seed=1,
)


def fake_lp(primal, reduced_costs=None, status=OPTIMAL, objective=0.0):
    n = len(primal)
    return LpSolution(
        status=status,
        objective=objective,
        primal=np.array(primal, float),
        reduced_costs=np.array(reduced_costs or [0.0] * n, float),
        iterations=0,
    )


def t1_sos2_model():
    return relax_to_sos2(build_model(make_t1()))


def x(*values):
    return np.array(values, float)


class TestSatisfaction:
    def test_sos1_two_nonzeros(self, t1_model):
        primal = x(0.0, 6 / 11, 5 / 11)
        assert not sos_satisfied(t1_model, primal)
        assert violation_measure(1, sos_scan(t1_model, primal)).tolist() == [1]

    def test_sos2_adjacent_pair_ok(self, t1_model):
        model = relax_to_sos2(t1_model)
        primal = x(0.0, 6 / 11, 5 / 11)
        assert sos_satisfied(model, primal)
        assert violation_measure(2, sos_scan(model, primal)).tolist() == [0]

    def test_sos2_gap_counts(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        assert violation_measure(2, sos_scan(model, x(0.0, 0.5, 0.0, 0.5))).tolist() == [1]
        # a trio always spans more than one interval: excess count plus width
        assert violation_measure(2, sos_scan(model, x(0.0, 0.3, 0.3, 0.4))).tolist() == [2]
        assert violation_measure(2, sos_scan(model, x(0.3, 0.3, 0.4, 0.0))).tolist() == [2]
        assert sos_satisfied(model, x(0.0, 0.0, 0.4, 0.6))

    def test_zero_tol_hides_slivers(self, t1_model):
        assert sos_satisfied(t1_model, x(5e-7, 1.0 - 5e-7, 0.0))
        assert not sos_satisfied(t1_model, x(5e-3, 1.0 - 5e-3, 0.0))

    def test_pick_violated_prefers_first_on_ties(self):
        cols = tuple(LpColumn(f"x{j}", 0.0, 0.0, 1.0) for j in range(4))
        model = from_tuples(columns=cols, rows=(), sos=(("A", 2), ("B", 2)))

        def pick(*primal):
            return _pick_violated(model, sos_scan(model, x(*primal)))

        assert pick(0.5, 0.5, 0.5, 0.5) == 0
        assert pick(0.0, 1.0, 0.5, 0.5) == 1
        assert pick(0.0, 1.0, 0.0, 1.0) is None

    def test_scan_counts_and_spans(self, nonadjacent_instance):
        model = build_model(nonadjacent_instance)
        for primal, want in (
            (x(0.0, 0.5, 0.0, 0.5), (2, 1, 3)),
            (x(1.0, 0.0, 0.0, 0.0), (1, 0, 0)),
            (x(0.0, 0.0, 0.0, -0.5), (1, 3, 3)),
        ):
            assert tuple(int(a[0]) for a in sos_scan(model, primal)) == want
        count, first, last = sos_scan(model, x(0.0, 0.0, 0.0, 0.0))
        assert count[0] == 0 and first[0] >= 4 and last[0] < 0


def loop_nonzero_positions(members, primal):
    """The per-set reference: a set's nonzero positions, one at a time."""
    return [p for p, j in enumerate(members) if abs(primal[j]) > ZERO_TOL]


def loop_measure(members, sos_type, primal):
    nz = loop_nonzero_positions(members, primal)
    if sos_type == 1:
        return max(len(nz) - 1, 0)
    if len(nz) <= 1:
        return 0
    return (len(nz) - 2) + (1 if nz[-1] - nz[0] > 1 else 0)


def loop_pick(model, primal):
    """The first set of the largest measure, scanning set by set."""
    best, best_measure = None, 0.0
    for k, members in enumerate(loop_sets(model)):
        measure = loop_measure(members, model.sos_type, primal)
        if measure > best_measure:
            best, best_measure = k, measure
    return best


def loop_sets(model):
    starts = model.sos_starts.tolist()
    return [range(a, b) for a, b in zip(starts, starts[1:])]


class TestScanAgainstTheLoop:
    # values on both sides of ZERO_TOL, at it exactly and one ulp above it
    SLIVERS = (1.0, 0.5, -0.25, 1e-3, 1e-9)

    def points(self, rng, n):
        values = np.array([*self.SLIVERS, ZERO_TOL, -ZERO_TOL, np.nextafter(ZERO_TOL, 1.0)])
        for density in (0.1, 0.3, 0.6):
            yield np.where(rng.random(n) < density, rng.choice(values, n), 0.0)

    def models(self, suite1):
        cols = tuple(LpColumn(f"x{j}", 0.0, 0.0, 1.0) for j in range(9))
        lone = from_tuples(cols, (), (("A", 1), ("B", 3), ("C", 1), ("D", 1), ("E", 3)))
        for model in (lone, *map(build_model, suite1)):
            yield model
            yield relax_to_sos2(model)

    def test_measures_spans_and_pick_match_the_per_set_loop(self, suite1):
        rng = np.random.default_rng(20)
        types = set()
        for model in self.models(suite1):
            types.add(model.sos_type)
            for primal in self.points(rng, len(model.column_names)):
                scan = sos_scan(model, primal)
                for k, members in enumerate(loop_sets(model)):
                    nz = loop_nonzero_positions(members, primal)
                    got = tuple(int(a[k]) for a in scan)
                    assert got[0] == len(nz) and (not nz or got[1:] == (nz[0], nz[-1]))
                want = [
                    loop_measure(members, model.sos_type, primal)
                    for members in loop_sets(model)
                ]
                assert violation_measure(model.sos_type, scan).tolist() == want
                assert _pick_violated(model, scan) == loop_pick(model, primal)
        assert types == {1, 2}


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
        # disimprovement must exceed RC_TOL strictly
        lp = fake_lp((0.0, 0.0, 0.96), reduced_costs=(-RC_TOL, -70.0, 0.0))
        assert not strategy1_fix(t1_model, lp)
        lp = fake_lp((0.0, 0.0, 0.96), reduced_costs=(-1.1 * RC_TOL, -70.0, 0.0))
        assert strategy1_fix(t1_model, lp)


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
        assert sos_satisfied(model, values)


class TestRelaxAndInterval:
    def test_relax_flips_every_set(self, t1_model):
        relaxed = relax_to_sos2(t1_model)
        assert (t1_model.sos_type, relaxed.sos_type) == (1, 2)
        assert relaxed.sos_starts is t1_model.sos_starts
        assert relaxed.bids is t1_model.bids
        assert relaxed.data is t1_model.data
        assert relaxed.columns == t1_model.columns
        assert relaxed.rows == t1_model.rows

    def test_relax_rejects_mixed_input(self, t1_model):
        with pytest.raises(ValueError, match="all-SOS1"):
            relax_to_sos2(relax_to_sos2(t1_model))

    def test_current_interval_brackets_average(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        assert current_interval(model, 0, x(0.0, 0.5, 0.0, 0.5)) == (2, 3)
        assert current_interval(model, 0, x(0.0, 1.0, 0.0, 0.0)) == (1, 2)
        assert current_interval(model, 0, x(1.0, 0.0, 0.0, 0.0)) == (0, 1)


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
        scan = sos_scan(t1_model, root_lp.primal)
        left, right = sos_branch({}, t1_model, 0, scan, root_lp)
        assert left == {2: (0.0, 0.0)}
        assert right == {0: (0.0, 0.0), 1: (0.0, 0.0)}

    def test_children_keep_the_parent_bounds(self, t1_model):
        root_lp = SimplexEngine(t1_model).solve()
        parent = {5: (1.0, 1.0)}
        scan = sos_scan(t1_model, root_lp.primal)
        left, right = sos_branch(parent, t1_model, 0, scan, root_lp)
        assert left == {5: (1.0, 1.0), 2: (0.0, 0.0)}
        assert right == {5: (1.0, 1.0), 0: (0.0, 0.0), 1: (0.0, 0.0)}
        assert parent == {5: (1.0, 1.0)}

    def test_sos2_split_keeps_cut_member_free(self, nonadjacent_instance):
        model = relax_to_sos2(build_model(nonadjacent_instance))
        root_lp = SimplexEngine(model).solve()
        scan = sos_scan(model, root_lp.primal)
        left, right = sos_branch({}, model, 0, scan, root_lp)
        # split at position 2: left forbids above it, right forbids below it
        assert left == {3: (0.0, 0.0)}
        assert right == {0: (0.0, 0.0), 1: (0.0, 0.0)}

    def test_all_zero_set_cannot_branch(self, t1_model):
        with pytest.raises(ValueError, match="all-zero"):
            lp = fake_lp((0.0, 0.0, 0.0))
            sos_branch({}, t1_model, 0, sos_scan(t1_model, lp.primal), lp)


class TestInterpolateBid:
    def test_weighted_mix(self):
        model = t1_sos2_model()
        _, values = branch_and_bound(model, limits=PROVE)
        (bid,) = interpolate_bids(model, values)
        assert math.isclose(bid, 0.5363636363636364, rel_tol=1e-9)

    def test_single_level(self, t1_model):
        assert interpolate_bids(t1_model, x(0.0, 1.0, 0.0)) == [0.40]
        assert interpolate_bids(t1_model, x(0.0, 0.0, 1.0)) == [0.70]

    def test_none_cases(self, t1_model):
        assert interpolate_bids(t1_model, x(1.0, 0.0, 0.0)) == [None]  # slack only
        assert interpolate_bids(t1_model, x(0.0, 0.0, 0.0)) == [None]  # empty
        no_bids = dataclasses.replace(t1_model, bids=None)
        assert np.isnan(no_bids.bids).all()
        assert interpolate_bids(no_bids, x(0.0, 1.0, 0.0)) == [None]
        assert interpolate_bids(no_bids, x(0.0, 0.5, 0.5)) == [None]

    def test_unsatisfied_raises(self, t1_model):
        with pytest.raises(ValueError, match="S_c1 is not SOS2-satisfied"):
            interpolate_bids(t1_model, x(0.5, 0.0, 0.5))
        with pytest.raises(ValueError, match="S_c1 is not SOS2-satisfied"):
            interpolate_bids(t1_model, x(0.2, 0.4, 0.4))

    def test_accepts_lp_solution_object(self, t1_model):
        lp = SimplexEngine(t1_model).solve()
        (bid,) = interpolate_bids(relax_to_sos2(t1_model), lp.primal)
        assert math.isclose(bid, 0.5363636363636364, rel_tol=1e-9)


class TestBranchAndBound:
    @pytest.mark.parametrize("strategy", ["none", "1", "2"])
    def test_t1_sos1_all_strategies_prove_50(self, t1_model, strategy):
        report, values = branch_and_bound(t1_model, strategy=strategy, limits=PROVE)
        assert report.status == "optimal"
        assert math.isclose(report.incumbent_objective, 50.0, rel_tol=1e-9)
        assert math.isclose(report.lp_relaxation_objective, FRAC, rel_tol=1e-12)
        assert math.isclose(report.degradation_pct, 350.0 / 9.0, rel_tol=1e-9)
        assert t1_model.sos_type == 1
        assert report.strategy == strategy
        assert values is not None
        assert math.isclose(values[1], 1.0, rel_tol=1e-9)

    def test_t1_sos2_root_already_feasible(self):
        model = t1_sos2_model()
        report, values = branch_and_bound(model, limits=PROVE)
        assert report.status == "optimal"
        assert math.isclose(report.incumbent_objective, FRAC, rel_tol=1e-9)
        assert report.degradation_pct == 0.0
        assert model.sos_type == 2
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
        model = from_tuples(
            columns=(LpColumn("x", 1.0, 0.0, 1.0),),
            rows=(LpRow("r", "E", 2.0, ((0, 1.0),)),),
            sos=(("S", 1),),
        )
        report, values = branch_and_bound(model, limits=PROVE)
        assert report.status == "infeasible"
        assert values is None
        assert report.incumbent_objective is None

    def test_bad_strategy_name(self, t1_model):
        # only the names in STRATEGIES: no number, no None
        for strategy in ("4", 2, None):
            with pytest.raises(ValueError, match="strategy must be one of"):
                branch_and_bound(t1_model, strategy=strategy)

    def test_deterministic(self, t1_model):
        runs = [branch_and_bound(t1_model, strategy="2", limits=PROVE) for _ in range(2)]
        (r1, v1), (r2, v2) = runs
        assert v1.tobytes() == v2.tobytes()
        for field in (
            "status",
            "incumbent_objective",
            "lp_relaxation_objective",
            "degradation_pct",
            "nodes",
            "strategy",
            "first_incumbent_objective",
        ):
            assert getattr(r1, field) == getattr(r2, field), field

    @pytest.mark.parametrize("seed, nodes", [(0, 88), (1, 116)])
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

    def test_tree_under_blands_rule(self, monkeypatch):
        # A node LP's dual steps hand over to the primal loop at their
        # first degenerate step, and Bland's rule takes over there at the
        # first degenerate step too; a different leaving or entering
        # choice in either moves the iteration count
        monkeypatch.setattr(simplex, "BLAND_AFTER", 1)
        assert self._tree_iterations() == 797

    def test_tree_iterations_pinned(self):
        # Node LPs re-solve with dual steps from the parent's basis, and
        # the root with dual steps from the crash basis; the primal
        # simplex alone took 2 459 iterations here (before reduced-cost fixing)
        assert self._tree_iterations() == 797

    @staticmethod
    def _tree_iterations() -> int:
        """LP iterations of the TREE_PARAMS search under --prove, checking
        its node count, its objective and every node LP bit for bit on the
        way."""
        model = build_model(generate_instance(TREE_PARAMS))
        proxy = SolveOnlyEngine(model)
        report, _ = branch_and_bound(
            model, "none", SearchLimits(first_solution=False), engine=proxy
        )
        assert report.nodes == 433
        assert repr(report.incumbent_objective) == "4537.616622180575"
        digest = hashlib.sha256()
        for _, _, sol in proxy.log:
            digest.update(sol.status.encode())
            digest.update(struct.pack("<d", sol.objective))
            digest.update(struct.pack(f"<{len(sol.primal)}d", *sol.primal))
            if sol.reduced_costs is not None:
                digest.update(struct.pack(f"<{len(sol.reduced_costs)}d", *sol.reduced_costs))
            digest.update(struct.pack("<q", sol.iterations))
            digest.update(sol.basis)
        assert digest.hexdigest() == (
            "1dcc458d1839a3e24dc078bd93d277f4bca9414676adbbfc602a6d7859c8b79b"
        )
        return sum(sol.iterations for _, _, sol in proxy.log)

    def test_tree_factorizations_pinned(self, monkeypatch):
        # A node LP factorizes its starting basis (unless its sibling just
        # did) and after every 64 etas; a stall needs no fresh factor to
        # be believed.  Confirming every stall with one took 690 here
        # (before reduced-cost fixing).
        model = build_model(generate_instance(TREE_PARAMS))
        engine = SimplexEngine(model)
        factorized = []
        factorize = engine._factorize

        def counted(basis):
            factorized.append(len(basis))
            return factorize(basis)

        monkeypatch.setattr(engine, "_factorize", counted)
        report, _ = branch_and_bound(
            model, "none", SearchLimits(first_solution=False), engine=engine
        )
        assert report.nodes == 433
        assert len(factorized) == 233

    def test_time_limit_bounds_the_root_lp(self, scale_base):
        # the root LP alone takes seconds here; the limit must stop it
        model = relax_to_sos2(build_model(scale_suite(scale_base, [2704])[0]))
        engine = SimplexEngine(model)
        t0 = time.perf_counter()
        report, _ = branch_and_bound(model, "3", SearchLimits(time_limit=0.3), engine=engine)
        assert time.perf_counter() - t0 < 2.0
        assert report.status in ("limit", "feasible")

    def test_incumbent_always_verifies(self, rollback_instance, nonadjacent_instance):
        for inst, sos_type in ((rollback_instance, 1), (nonadjacent_instance, 2)):
            model = build_model(inst)
            if sos_type == 2:
                model = relax_to_sos2(model)
            report, values = branch_and_bound(model, limits=PROVE)
            assert values is not None
            assert sos_satisfied(model, values)


class SolveOnlyEngine:
    """Exactly the engine interface that branch_and_bound may rely on.
    ``log`` holds each call's bounds, warm token and solution."""

    def __init__(self, model):
        self._engine = SimplexEngine(model)
        self.log = []

    def solve(self, bounds=None, warm=None, max_iterations=None):
        sol = self._engine.solve(
            bounds=bounds, warm=warm, max_iterations=max_iterations
        )
        self.log.append((bounds, warm, sol))
        return sol


class CutOffEngine(SolveOnlyEngine):
    """Returns ``ITERATION_LIMIT`` for the warm solve at call ``call``
    (the root is call 0); with ``twice``, also for the cold re-solve of
    the same bounds that follows it."""

    def __init__(self, model, call, twice=False):
        super().__init__(model)
        self.call = call
        self.twice = twice
        self.cut = None  # the bounds of the cut-off node

    def solve(self, bounds=None, warm=None, max_iterations=None):
        sol = super().solve(bounds, warm, max_iterations)
        if len(self.log) - 1 == self.call or (
            self.twice and warm is None and self.cut is not None and bounds == self.cut
        ):
            self.cut = bounds
            sol = dataclasses.replace(sol, status=simplex.ITERATION_LIMIT)
            self.log[-1] = (bounds, warm, sol)
        return sol


# Solves in the fixing pass: the re-solve under the fixes of strategies
# 1 and 2 when the root LP does not already meet them; for strategy 3 the
# hot start, then the re-solve under its zero flags on the same terms.
FIXING_SOLVES = {
    make_t1: {"none": 0, "1": 0, "2": 0, "3": 1},
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
        assert len(proxy.log) == 1 + fixing + max(got.nodes - 1, 0)
        assert got_values.tobytes() == want_values.tobytes()
        untimed = dict(total_seconds=0.0, first_solution_seconds=None)
        assert dataclasses.replace(got, **untimed) == dataclasses.replace(want, **untimed)
        assert (got.first_solution_seconds is None) == (want.first_solution_seconds is None)

    def test_replayed_solves_match_fresh_engines(self):
        # Siblings start from their parent's basis, and the engine reuses
        # that basis's factor; a fresh engine factorizes it anew.  Both
        # must give the same solution, bit for bit.
        model = build_model(generate_instance(TREE_PARAMS))
        proxy = SolveOnlyEngine(model)
        branch_and_bound(model, "none", SearchLimits(first_solution=False), engine=proxy)
        warms = [warm for _, warm, _ in proxy.log]
        assert sum(a == b for a, b in zip(warms, warms[1:])) >= 100
        for bounds, warm, sol in proxy.log:
            assert same_solution(SimplexEngine(model).solve(bounds=bounds, warm=warm), sol)

    def test_fixes_the_root_meets_are_not_resolved(self):
        # strategy 2 zeroes t1's slack, which the root LP already holds
        # at zero: the root is the fixed LP's solution as it stands
        model = build_model(make_t1())
        proxy = SolveOnlyEngine(model)
        report, _ = branch_and_bound(model, "2", PROVE, engine=proxy)
        root = proxy.log[0][2]
        fixes = strategy2_fix(model, root)
        assert fixes
        assert all(lo <= root.primal[j] <= hi for j, (lo, hi) in fixes.items())
        assert all(bounds != fixes for bounds, _, _ in proxy.log[1:])
        assert len(proxy.log) == report.nodes

    def test_cut_off_node_is_solved_again_from_the_cold_basis(self, t1_model):
        # call 1 is the left child, whose LP gives the optimum 50
        proxy = CutOffEngine(t1_model, call=1)
        report, values = branch_and_bound(t1_model, "none", PROVE, engine=proxy)
        want, want_values = branch_and_bound(t1_model, "none", PROVE)
        assert (report.status, report.nodes) == (want.status, want.nodes) == ("optimal", 3)
        assert report.incumbent_objective == want.incumbent_objective == 50.0
        assert values.tobytes() == want_values.tobytes()
        (cut_bounds, cut_warm, _), (bounds, warm, sol) = proxy.log[1:3]
        assert cut_warm is not None
        assert (bounds, warm, sol.status) == (cut_bounds, None, OPTIMAL)

    @pytest.mark.parametrize(
        "call, status, objective",
        [(1, "limit", None), (2, "feasible", 50.0)],
        ids=["only-incumbent-dropped", "open-node-dropped"],
    )
    def test_node_failing_twice_is_dropped(self, t1_model, call, status, objective):
        # dropping the left child leaves the infeasible right one; dropping
        # the right child keeps the optimum, which is then not proved
        proxy = CutOffEngine(t1_model, call=call, twice=True)
        report, _ = branch_and_bound(t1_model, "none", PROVE, engine=proxy)
        assert (report.status, report.incumbent_objective) == (status, objective)
        assert report.nodes == 3
        assert len(proxy.log) == 4
        bounds, warm, sol = proxy.log[call + 1]
        assert (bounds, warm, sol.status) == (proxy.cut, None, simplex.ITERATION_LIMIT)

    def test_strategy3_first_solution_skips_fixing_resolve(self):
        # the hot start is the first solution: root and hot start only
        model = relax_to_sos2(build_model(make_nonadjacent_instance()))
        proxy = SolveOnlyEngine(model)
        report, _ = branch_and_bound(model, "3", engine=proxy)
        assert (report.status, report.nodes) == ("feasible", 0)
        assert len(proxy.log) == 2


class TestReducedCostFixing:
    """At a node branched on after the first incumbent, the search zeroes
    every set member the node's LP holds at exactly 0 whose reduced cost
    d < 0 puts the node's objective plus d at or below the pruning
    threshold, when every set is the support of a convexity row."""

    @staticmethod
    def _branchings(monkeypatch, model, strategy="none", limits=PROVE):
        """Run the search and return, for each node it branched on, the
        bounds the node was solved under, the bounds it branched with,
        its LP, and the incumbent objective at that moment (None before
        the first), replayed from the solves with the search's own rule.
        The root LP, when it is branched on, was solved without the
        bounds of strategy 1's fixes, which it meets."""
        proxy = SolveOnlyEngine(model)
        branched = []

        def recording(bounds, model, k, scan, lp):
            branched.append((bounds, lp))
            return sos_branch(bounds, model, k, scan, lp)

        monkeypatch.setattr(search, "sos_branch", recording)
        branch_and_bound(model, strategy, limits, engine=proxy)

        position = {id(sol): i for i, (_, _, sol) in enumerate(proxy.log)}
        incumbents, incumbent = [], None
        for _, _, sol in proxy.log:
            if (
                sol.status == OPTIMAL
                and sos_satisfied(model, sol.primal)
                and (incumbent is None or sol.objective > _cutoff(incumbent, limits))
            ):
                incumbent = sol.objective
            incumbents.append(incumbent)
        out = []
        for bounds, lp in branched:
            i = position[id(lp)]
            solved = proxy.log[i][0] if i else ROOT_FIXES[strategy](model, lp)
            out.append((solved, bounds, lp, incumbents[i]))
        return out

    @pytest.mark.parametrize("strategy", ["none", "1"])
    def test_fixes_follow_the_rule_after_the_first_incumbent(self, monkeypatch, strategy):
        # strategy 1 rounds 24 sets of the root to (1, 1) first
        model = build_model(generate_instance(TREE_PARAMS))
        limits = SearchLimits(first_solution=False)
        end = model.sos_starts[-1]
        fixed = ones = 0
        for solved, bounds, lp, incumbent in self._branchings(
            monkeypatch, model, strategy, limits
        ):
            # no bound the node was solved under is overwritten
            assert {j: bounds[j] for j in solved} == solved
            ones += sum(b == (1.0, 1.0) for b in solved.values())
            fixes = {j: b for j, b in bounds.items() if j not in solved}
            if incumbent is None:
                assert not fixes
                continue
            z, d = lp.objective, lp.reduced_costs
            want = {
                j for j in range(end)
                if lp.primal[j] == 0.0 and d[j] < 0.0
                and z + d[j] <= _cutoff(incumbent, limits) and j not in solved
            }
            assert fixes == dict.fromkeys(want, (0.0, 0.0))
            fixed += len(fixes)
        assert fixed > 0
        assert (ones > 0) == (strategy == "1")

    def test_sets_without_convexity_rows_get_no_fixes(self, monkeypatch):
        # A knapsack row, no convexity rows: a set's nonzero member may be
        # fractional.  The optimum 11 is x1 = 1 with x4 = 1/4.  Once the
        # incumbent is 10, the node at 11.57 would fix x4 to 0 as if x4
        # could only be 0 or 1 (d = -2.29), leaving 10.
        cols = tuple(
            LpColumn(f"x{j}", c, 0.0, 1.0) for j, c in enumerate((9.0, 9.0, 9.0, 5.0, 8.0))
        )
        row = LpRow("R0", "L", 6.0, tuple(enumerate((5.0, 4.0, 7.0, 10.0, 8.0))))
        model = from_tuples(cols, (row,), (("S0", 3), ("S1", 2)))
        assert not search._sets_are_convexity_rows(model)
        assert _brute_force_sos1(model) == pytest.approx(11.0, abs=1e-12)

        branchings = self._branchings(monkeypatch, model)
        assert any(incumbent is not None for *_, incumbent in branchings)
        assert all(bounds == solved for solved, bounds, *_ in branchings)
        report, _ = branch_and_bound(model, "none", PROVE)
        assert report.incumbent_objective == pytest.approx(11.0, abs=1e-9)

        monkeypatch.setattr(search, "_sets_are_convexity_rows", lambda model: True)
        unguarded, _ = branch_and_bound(model, "none", PROVE)
        assert unguarded.incumbent_objective == pytest.approx(10.0, abs=1e-9)

    def test_sos2_models_get_no_fixes(self, monkeypatch, suite1):
        after_incumbent = 0
        for instance in suite1[:80]:
            model = relax_to_sos2(build_model(instance))
            for solved, bounds, _, incumbent in self._branchings(monkeypatch, model):
                assert bounds == solved
                after_incumbent += incumbent is not None
        assert after_incumbent > 0

    def test_the_check_reads_the_rows(self, t1_model):
        # build_model's CVX rows pass; each change below breaks one of them
        assert search._sets_are_convexity_rows(t1_model)
        cvx = t1_model.row_names.index("CVX_c1")
        lo, hi = t1_model.indptr[cvx:cvx + 2]
        data = t1_model.data.copy()
        data[lo] = 2.0  # a coefficient other than the right-hand side
        assert not search._sets_are_convexity_rows(dataclasses.replace(t1_model, data=data))
        data, rhs = t1_model.data.copy(), t1_model.rhs.copy()
        rhs[cvx] = data[lo:hi] = 0.0  # a zero right-hand side
        assert not search._sets_are_convexity_rows(
            dataclasses.replace(t1_model, data=data, rhs=rhs)
        )
        senses = t1_model.senses[:cvx] + "L" + t1_model.senses[cvx + 1:]
        assert not search._sets_are_convexity_rows(dataclasses.replace(t1_model, senses=senses))


# The bounds a strategy puts on the root node, from the root LP
ROOT_FIXES = {"none": lambda model, lp: {}, "1": strategy1_fix}


def _cutoff(incumbent: float, limits: SearchLimits) -> float:
    """The pruning threshold the search uses: a bound at or below it is pruned."""
    return incumbent + max(limits.gap * max(1.0, abs(incumbent)), 1e-9)


def _brute_force_sos1(model) -> float:
    """The best LP objective over every choice of at most one nonzero
    member per set, the others fixed to zero."""
    starts = model.sos_starts.tolist()
    runs = [range(a, b) for a, b in zip(starts, starts[1:])]
    engine = SimplexEngine(model)
    best = -math.inf
    for pick in itertools.product(*([None, *run] for run in runs)):
        bounds = {j: (0.0, 0.0) for run, p in zip(runs, pick) for j in run if j != p}
        sol = engine.solve(bounds=bounds)
        if sol.status == OPTIMAL:
            best = max(best, sol.objective)
    return best
