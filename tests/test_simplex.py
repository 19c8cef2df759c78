import dataclasses
import hashlib
import math
import time
import types

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from bidopt import simplex
from bidopt.fileio import read_mps
from bidopt.generate import GenParams, generate_instance, scale_suite
from bidopt.model import LpColumn, LpModel, LpRow, build_model
from bidopt.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
    SimplexEngine,
    _Factor,
    _REFACTOR_EVERY,
    _gub_blocks,
)

from conftest import from_tuples, same_solution, sets_of

FRAC = 900.0 / 11.0


def random_model(rng: np.random.Generator) -> LpModel:
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 7))
    cols = []
    anchor = np.empty(n)
    for j in range(n):
        lo = float(rng.uniform(-5, 1))
        if rng.random() < 0.15:
            lo = -math.inf
        hi = float(rng.uniform(-1, 2)) if math.isinf(lo) else lo + float(
            rng.uniform(0, 6)
        )
        if rng.random() < 0.1:
            hi = math.inf
        if math.isinf(lo) and math.isinf(hi):
            lo = 0.0
        a = lo if not math.isinf(lo) else hi
        b = hi if not math.isinf(hi) else lo
        anchor[j] = a + (b - a) * rng.random() if a != b else a
        cols.append(LpColumn(f"x{j}", float(rng.normal(0, 3)), lo, hi))
    # half the instances get a right-hand side built around a point inside
    # the bounds, so they are feasible by construction; the rest keep a
    # fully random rhs to exercise the infeasible/unbounded paths
    anchored = rng.random() < 0.5
    rows = []
    for i in range(m):
        coeffs = []
        for j in range(n):
            if rng.random() < 0.7:
                coeffs.append((j, float(rng.normal(0, 2))))
        if not coeffs:
            coeffs.append((int(rng.integers(0, n)), float(rng.normal(0, 2))))
        sense = "E" if rng.random() < 0.3 else "L"
        if anchored:
            act = sum(v * anchor[j] for j, v in coeffs)
            rhs = act if sense == "E" else act + float(rng.uniform(0, 3))
        else:
            rhs = float(rng.normal(0, 4))
        rows.append(LpRow(f"r{i}", sense, rhs, tuple(coeffs)))
    return from_tuples(columns=tuple(cols), rows=tuple(rows))


def random_sparse_model(rng: np.random.Generator) -> LpModel:
    """20-80 columns and 10-40 rows of 3-8 nonzeros each.  About one
    column in twenty is free, one in ten has no lower and one in ten no
    upper bound.  Three models in four get a right-hand side built around
    a point inside the bounds, so they are feasible; the rest are random."""
    n = int(rng.integers(20, 81))
    m = int(rng.integers(10, 41))
    cols = []
    anchor = np.empty(n)
    for j in range(n):
        lo = float(rng.uniform(-5, 1))
        hi = lo + float(rng.uniform(0, 6))
        kind = rng.random()
        if kind < 0.05:
            lo, hi = -math.inf, math.inf
        elif kind < 0.15:
            lo = -math.inf
        elif kind < 0.25:
            hi = math.inf
        anchor[j] = min(max(float(rng.uniform(-3, 3)), lo), hi)
        # an objective rising toward a missing bound would make most
        # models unbounded; free columns keep a random one
        obj = float(rng.normal(0, 3))
        if math.isinf(hi) != math.isinf(lo):
            obj = -abs(obj) if math.isinf(hi) else abs(obj)
        cols.append(LpColumn(f"x{j}", obj, lo, hi))
    anchored = rng.random() < 0.75
    rows = []
    for i in range(m):
        members = rng.choice(n, size=int(rng.integers(3, 9)), replace=False)
        coeffs = tuple((int(j), float(rng.normal(0, 2))) for j in sorted(members))
        sense = "E" if rng.random() < 0.3 else "L"
        if anchored:
            act = sum(v * anchor[j] for j, v in coeffs)
            rhs = act if sense == "E" else act + float(rng.uniform(0, 3))
        else:
            rhs = float(rng.normal(0, 4))
        rows.append(LpRow(f"r{i}", sense, rhs, coeffs))
    return from_tuples(columns=tuple(cols), rows=tuple(rows))


def random_bid_model(rng: np.random.Generator) -> LpModel:
    """A generated bidding model of 2-18 campaigns: SOS-shaped columns
    whose LPs are degenerate, primal and dual."""
    return build_model(generate_instance(GenParams(
        businesses=int(rng.integers(1, 4)),
        campaigns_per_business=int(rng.integers(2, 7)),
        levels_per_campaign=int(rng.integers(2, 6)),
        budget_tightness=float(rng.choice([0.3, 0.7, 1.5])),
        seed=int(rng.integers(0, 10**6)),
    )))


def dense_lp(model: LpModel) -> tuple[np.ndarray, np.ndarray]:
    """The model as a dense ``[A I]`` with one logical per row, and its
    objective padded with zeros, in the model's own units and sense."""
    n, m = len(model.columns), len(model.rows)
    aug = np.hstack([np.zeros((m, n)), np.eye(m)])
    for i, row in enumerate(model.rows):
        for j, v in row.coeffs:
            aug[i, j] += v
    cost = np.zeros(n + m)
    cost[:n] = [col.objective for col in model.columns]
    return aug, cost


def dense_duals(aug: np.ndarray, cost: np.ndarray, token: bytes) -> np.ndarray:
    """y solving ``B^T y = c_B`` for the basis of ``token``, from a dense
    solve."""
    basis = np.flatnonzero(np.frombuffer(token, np.int8) == BASIC)
    return np.linalg.solve(aug[:, basis].T, cost[basis])


def scipy_reference(model: LpModel, bounds: dict | None = None):
    n = len(model.columns)
    c = -np.array([col.objective for col in model.columns])
    lo = np.array([col.lower for col in model.columns])
    hi = np.array([col.upper for col in model.columns])
    if bounds:
        for j, (a, b) in bounds.items():
            lo[j], hi[j] = a, b
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in model.rows:
        dense = np.zeros(n)
        for j, v in row.coeffs:
            dense[j] = v
        if row.sense == "L":
            a_ub.append(dense)
            b_ub.append(row.rhs)
        else:
            a_eq.append(dense)
            b_eq.append(row.rhs)
    res = scipy.optimize.linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lo, hi)),
        method="highs",
    )
    return res


class TestT1Exact:
    def test_objective_and_primal(self, t1_model):
        sol = SimplexEngine(t1_model).solve()
        assert sol.status == OPTIMAL
        assert math.isclose(sol.objective, FRAC, rel_tol=1e-12)
        want = (0.0, 6.0 / 11.0, 5.0 / 11.0)
        for got, exp in zip(sol.primal, want):
            assert math.isclose(got, exp, rel_tol=0, abs_tol=1e-10)

    def test_reduced_costs_and_duals(self, t1_model):
        sol = SimplexEngine(t1_model).solve()
        # slack level priced out by the convexity dual
        assert math.isclose(sol.reduced_costs[0], -200.0 / 11.0, rel_tol=1e-10)
        assert abs(sol.reduced_costs[1]) <= 1e-9
        assert abs(sol.reduced_costs[2]) <= 1e-9
        aug, cost = dense_lp(t1_model)
        y = dense_duals(aug, cost, sol.basis)
        np.testing.assert_allclose(
            sol.reduced_costs, cost[:3] - aug[:, :3].T @ y, rtol=0, atol=1e-9
        )
        duals = dict(zip((r.name for r in t1_model.rows), y))
        # strong duality: dual objective equals primal objective
        dual_obj = duals["CVX_c1"] * 1.0 + duals["BUD_k1"] * 100.0 + duals["IMP"] * 1000.0
        assert math.isclose(dual_obj, sol.objective, rel_tol=1e-10)

    def test_fix_level_one(self, t1_model):
        sol = SimplexEngine(t1_model).solve(bounds={1: (1.0, 1.0)})
        assert sol.status == OPTIMAL
        assert math.isclose(sol.objective, 50.0, rel_tol=1e-12)
        assert math.isclose(sol.primal[1], 1.0, rel_tol=1e-12)

    def test_fix_both_levels_infeasible(self, t1_model):
        sol = SimplexEngine(t1_model).solve(
            bounds={1: (1.0, 1.0), 2: (1.0, 1.0)}
        )
        assert sol.status == INFEASIBLE

    def test_crossed_bounds_raise(self, t1_model):
        with pytest.raises(ValueError, match="lower > upper"):
            SimplexEngine(t1_model).solve(bounds={1: (1.0, 0.0)})


def tuple_setup(model: LpModel):
    """``[A I]`` in CSC (data, indices, indptr), the row-scaled rhs, the
    cost and the base bounds, built entry by entry from the model's
    ``rows`` and ``columns`` tuples: the reference for the engine's
    set-up from the CSR arrays."""
    n, m = len(model.columns), len(model.rows)
    scale, acc = [], {}
    for i, row in enumerate(model.rows):
        big = max((abs(v) for _, v in row.coeffs), default=0.0)
        s = 2.0 ** (-round(math.log2(big))) if big > 0.0 else 1.0
        scale.append(s)
        for j, v in row.coeffs:
            acc.setdefault((j, i), []).append(v * s)
    for i in range(m):
        acc[n + i, i] = [1.0]
    keys = sorted(acc)
    return {
        # repeats add up in their given order, through the engine's reduceat
        "data": [np.add.reduceat(acc[k], [0])[0] for k in keys],
        "indices": [i for _, i in keys],
        "indptr": np.searchsorted([j for j, _ in keys], np.arange(n + m + 1)),
        "rhs": [r.rhs * s for r, s in zip(model.rows, scale)],
        "cost": [-c.objective for c in model.columns] + [0.0] * m,
        "base_lower": [c.lower for c in model.columns] + [0.0] * m,
        "base_upper": [c.upper for c in model.columns]
        + [math.inf if r.sense == "L" else 0.0 for r in model.rows],
    }


# A row that lists a column twice and explicit zeros, which MPS allows
REPEATS_MPS = """* OBJSENSE: MAXIMIZE
NAME          REPEATS
ROWS
 N  COST
 E  g1
 E  g2
 L  link
COLUMNS
    x  COST  3.0
    x  g1    1.0
    x  link  0.0
    x  link  2.5
    y  COST  1.0
    y  g1    0.75
    y  g1    0.25
    y  link  -1.5
    y  link  1e-17
    z  g2    0.0
    z  g2    1.0
    w  g2    1.0
    w  link  0.1
    w  link  0.2
    w  link  0.3
RHS
    RHS  g1    1.0
    RHS  g2    1.0
    RHS  link  2.0
ENDATA
"""


class TestEngineSetup:
    def test_arrays_match_the_tuple_setup_bit_for_bit(self, suite1, scale_base, t1_model):
        models = [t1_model, read_mps(REPEATS_MPS), build_model(scale_suite(scale_base, [300])[0])]
        models += [build_model(inst) for inst in suite1]
        for model in models:
            want = tuple_setup(model)
            twin = from_tuples(model.columns, model.rows, sets_of(model))
            for engine in (SimplexEngine(model), SimplexEngine(twin)):
                got = {
                    "data": engine._aug.data,
                    "indices": engine._aug.indices,
                    "indptr": engine._aug.indptr,
                    **{k: getattr(engine, k) for k in ("rhs", "cost", "base_lower", "base_upper")},
                }
                for key, value in want.items():
                    if key in ("indices", "indptr"):
                        np.testing.assert_array_equal(got[key], value)
                    else:
                        assert got[key].tobytes() == np.array(value, float).tobytes(), key

    def test_repeated_coefficients_are_summed(self, t1_model):
        # a row may list a column twice (an MPS file can): the entries add up
        split = tuple(
            LpRow(r.name, r.sense, r.rhs, tuple(
                e for j, v in r.coeffs for e in ((j, 0.25 * v), (j, 0.75 * v))
            ))
            for r in t1_model.rows
        )
        model = from_tuples(columns=t1_model.columns, rows=split)
        engine = SimplexEngine(model)
        # the same entries, up to each row's power-of-two scale
        n = len(t1_model.columns)
        want = dense_lp(t1_model)[0][:, :n]
        got = engine._aug.toarray()[:, :n]
        assert engine._aug.nnz == SimplexEngine(t1_model)._aug.nnz
        row_scale = np.abs(got).max(axis=1) / np.abs(want).max(axis=1)
        np.testing.assert_allclose(got, want * row_scale[:, None], rtol=1e-15, atol=0)
        sol = engine.solve()
        assert sol.status == OPTIMAL
        assert math.isclose(sol.objective, FRAC, rel_tol=1e-12)

    @pytest.mark.parametrize("impressions, impression_budget", [(1e-320, 1000.0), (1e-300, 1e10)])
    def test_rows_whose_scale_would_overflow_stay_unscaled(
        self, t1_instance, impressions, impression_budget
    ):
        # Every entry of the impression row is tiny: its power of two
        # (1e-320), or the right-hand side scaled by it (1e-300), would
        # overflow.  The row is left as it is, and it does not bind.
        (c1,) = t1_instance.campaigns
        c1 = dataclasses.replace(c1, impressions=(0.0, impressions, impressions))
        instance = dataclasses.replace(
            t1_instance, campaigns=(c1,), impression_budget=impression_budget
        )
        model = build_model(instance)
        engine = SimplexEngine(model)
        assert np.isfinite(engine.rhs).all()
        assert engine.rhs[-1] == impression_budget
        sol = engine.solve()
        assert sol.status == OPTIMAL
        assert sol.objective == 120.0

    def test_coefficient_of_a_missing_column_raises(self, t1_model):
        row = LpRow("r", "L", 1.0, ((len(t1_model.columns), 1.0),))
        model = from_tuples(columns=t1_model.columns, rows=(row,))
        with pytest.raises(ValueError, match="column"):
            SimplexEngine(model)


class TestStates:
    def test_unbounded(self):
        model = from_tuples(
            columns=(LpColumn("x", 1.0, 0.0, math.inf),),
            rows=(LpRow("r", "L", 1.0, ((0, -1.0),)),),
        )
        assert SimplexEngine(model).solve().status == UNBOUNDED

    def test_infeasible_rows(self):
        model = from_tuples(
            columns=(LpColumn("x", 1.0, 0.0, 1.0),),
            rows=(
                LpRow("lo", "E", 2.0, ((0, 1.0),)),
                LpRow("hi", "E", 0.0, ((0, 1.0),)),
            ),
        )
        assert SimplexEngine(model).solve().status == INFEASIBLE

    def test_iteration_limit(self, t1_model):
        sol = SimplexEngine(t1_model).solve(max_iterations=0)
        assert sol.status == ITERATION_LIMIT

    def test_deadline_passed(self, t1_model):
        sol = SimplexEngine(t1_model).solve(deadline=time.perf_counter())
        assert (sol.status, sol.iterations) == (ITERATION_LIMIT, 0)

    def test_empty_bounds_dict(self, t1_model):
        assert SimplexEngine(t1_model).solve(bounds={}).status == OPTIMAL

    @pytest.mark.parametrize(
        "columns",
        [
            "    x                   COST                -1.0\n"
            "BOUNDS\n UP BND                 x                   1.0\n",
            "",
        ],
        ids=["one-column", "no-columns"],
    )
    def test_no_rows_and_a_dual_feasible_start(self, columns):
        # the start, every column at its lower bound, is optimal as it
        # stands: no row is there to leave the basis
        model = read_mps("ROWS\n N  COST\nCOLUMNS\n" + columns + "ENDATA\n")
        assert (len(model.row_names), len(model.column_names)) == (0, 1 if columns else 0)
        engine = SimplexEngine(model)
        sol = engine.solve()
        assert (sol.status, sol.objective, sol.iterations) == (OPTIMAL, 0.0, 0)
        assert sol.primal.tolist() == [0.0] * len(model.column_names)
        # the reduced costs are the start's -d, which the engine keeps
        # with its memoized start: a copy of it, not a view
        assert sol.reduced_costs.tolist() == [-1.0] * len(model.column_names)
        assert not np.shares_memory(sol.reduced_costs, engine._start[2])
        if columns:  # linprog takes no empty cost vector
            ref = scipy_reference(model)
            assert (ref.status, -ref.fun) == (0, 0.0)

    def test_arrays_are_read_only(self, t1_model):
        sol = SimplexEngine(t1_model).solve()
        for a in (sol.primal, sol.reduced_costs):
            assert isinstance(a, np.ndarray) and a.shape == (3,) and not a.flags.writeable


@pytest.fixture
def dual_log(monkeypatch):
    """(status, iterations) of every dual phase."""
    log = []
    dual_phase = SimplexEngine._dual_phase

    def recorded(self, *args):
        out = dual_phase(self, *args)
        log.append((out[0], args[0].iterations))
        return out

    monkeypatch.setattr(SimplexEngine, "_dual_phase", recorded)
    return log


class TestAgainstScipy:
    def test_random_instances(self):
        rng = np.random.default_rng(7)
        statuses = [self._agrees(random_model(rng), trial).status for trial in range(150)]
        assert statuses.count(OPTIMAL) >= 50

    def test_larger_sparse_instances_with_free_columns(self):
        # large enough to pass the eta-file refactorization, with free and
        # half-bounded columns in the pricing
        rng = np.random.default_rng(11)
        sols = [self._agrees(random_sparse_model(rng), trial) for trial in range(120)]
        statuses = [sol.status for sol in sols]
        assert statuses.count(OPTIMAL) >= 40
        assert statuses.count(UNBOUNDED) >= 20
        assert statuses.count(INFEASIBLE) >= 10
        assert max(sol.iterations for sol in sols) > _REFACTOR_EVERY

    def test_bidding_models_from_the_crash(self, dual_log):
        # cold roots whose dual steps start from the crash basis: their
        # reduced costs are the dual phase's updated ones
        rng = np.random.default_rng(17)
        sols = [self._agrees(random_bid_model(rng), trial) for trial in range(60)]
        assert all(sol.status == OPTIMAL for sol in sols)
        assert sum(iters > 0 for _, iters in dual_log) >= 40

    def _agrees(self, model: LpModel, trial: int) -> LpSolution:
        mine = SimplexEngine(model).solve()
        ref = scipy_reference(model)
        if mine.status == OPTIMAL:
            assert ref.status == 0, f"trial {trial}: scipy disagrees on status"
            my_obj = mine.objective
            ref_obj = -ref.fun
            scale = max(1.0, abs(ref_obj))
            assert abs(my_obj - ref_obj) <= 1e-6 * scale, (
                f"trial {trial}: {my_obj} vs {ref_obj}"
            )
            self._check_feasible(model, mine.primal)
            self._check_duality(model, mine)
        elif mine.status == INFEASIBLE:
            assert ref.status == 2, f"trial {trial}: scipy says {ref.status}"
        elif mine.status == UNBOUNDED:
            assert ref.status == 3, f"trial {trial}: scipy says {ref.status}"
        else:
            pytest.fail(f"trial {trial}: unexpected status {mine.status}")
        return mine

    @staticmethod
    def _check_feasible(model: LpModel, primal):
        x = np.array(primal)
        for j, col in enumerate(model.columns):
            assert x[j] >= col.lower - 1e-6
            assert x[j] <= col.upper + 1e-6
        for row in model.rows:
            act = sum(v * x[j] for j, v in row.coeffs)
            slackless = max(1.0, abs(row.rhs))
            if row.sense == "L":
                assert act <= row.rhs + 1e-6 * slackless
            else:
                assert abs(act - row.rhs) <= 1e-6 * slackless

    @staticmethod
    def _check_duality(model: LpModel, sol: LpSolution):
        aug, cost = dense_lp(model)
        y = dense_duals(aug, cost, sol.basis)
        n = len(model.columns)
        scale = max(1.0, abs(sol.objective))
        np.testing.assert_allclose(
            sol.reduced_costs, cost[:n] - aug[:, :n].T @ y, rtol=0, atol=1e-6 * scale
        )
        dual_obj = sum(y_i * r.rhs for y_i, r in zip(y, model.rows))
        for j, col in enumerate(model.columns):
            rc = sol.reduced_costs[j]
            if rc > 0 and not math.isinf(col.upper):
                dual_obj += rc * col.upper
            elif rc < 0 and not math.isinf(col.lower):
                dual_obj += rc * col.lower
        assert abs(dual_obj - sol.objective) <= 1e-6 * scale


class TestDeterminismAndWarm:
    def test_repeat_solves_identical(self, t1_model):
        a = SimplexEngine(t1_model).solve()
        b = SimplexEngine(t1_model).solve()
        assert same_solution(a, b)

    def test_warm_resolve_matches_cold(self, t1_model):
        engine = SimplexEngine(t1_model)
        root = engine.solve()
        tightened = {2: (0.0, 0.0)}
        warm = engine.solve(bounds=tightened, warm=root.basis)
        cold = engine.solve(bounds=tightened)
        assert warm.status == cold.status == OPTIMAL
        assert math.isclose(warm.objective, cold.objective, rel_tol=1e-9)
        assert math.isclose(warm.objective, 50.0, rel_tol=1e-12)
        assert warm.iterations <= cold.iterations + 2

    def test_monotone_tightening(self, t1_model):
        engine = SimplexEngine(t1_model)
        free = engine.solve().objective
        capped = engine.solve(bounds={2: (0.0, 0.25)}).objective
        fixed = engine.solve(bounds={2: (0.0, 0.0)}).objective
        assert free >= capped - 1e-9
        assert capped >= fixed - 1e-9

    def test_warm_after_many_randoms(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(60):
            model = random_model(rng)
            engine = SimplexEngine(model)
            root = engine.solve()
            if root.status != OPTIMAL:
                continue
            j = int(rng.integers(0, len(model.columns)))
            v = root.primal[j]
            lo = model.columns[j].lower
            b = {j: (lo, max(lo, v * 0.5))} if not math.isinf(lo) else {j: (0.0, 0.0)}
            warm = engine.solve(bounds=b, warm=root.basis)
            cold = engine.solve(bounds=b)
            assert warm.status == cold.status
            if warm.status == OPTIMAL:
                scale = max(1.0, abs(cold.objective))
                assert abs(warm.objective - cold.objective) <= 1e-7 * scale
                checked += 1
        assert checked >= 20


class TestSingularBasis:
    def test_dependent_warm_basis_falls_back_to_cold(self):
        # columns (1, 1) and (2, 2) are parallel, so no basis holds both
        model = from_tuples(
            columns=(LpColumn("x", 1.0, 0.0, 10.0), LpColumn("y", 1.0, 0.0, 10.0)),
            rows=(
                LpRow("a", "L", 4.0, ((0, 1.0), (1, 2.0))),
                LpRow("b", "L", 6.0, ((0, 1.0), (1, 2.0))),
            ),
        )
        engine = SimplexEngine(model)
        with pytest.raises(RuntimeError):
            engine._factorize(np.array([0, 1]))
        cold = engine.solve()
        token = bytes((BASIC, BASIC, AT_LOWER, AT_LOWER))
        warm = engine.solve(warm=token)
        assert warm.status == cold.status == OPTIMAL
        assert warm.objective == cold.objective == 4.0
        assert same_solution(engine.solve(warm=token), warm)
        assert same_solution(warm, cold)

    def test_factor_rejects_near_singular_basis(self):
        bmat = scipy.sparse.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
        lu = scipy.sparse.linalg.splu(bmat)  # SuperLU alone accepts it
        pivots = np.abs(lu.U.diagonal())
        assert 0.0 < pivots.min() < 1e-12 * pivots.max()
        with pytest.raises(RuntimeError, match="singular"):
            _Factor(_gub_blocks(bmat, np.zeros(2, bool)), np.arange(2))


def _drift(solve):
    """Wrap a ``_Factor`` solve so that, once the factor holds etas, its
    results are 0.01% off: values updated through it drift."""

    def drifted(self, b, *args, **kwargs):
        out = solve(self, b, *args, **kwargs)
        return out * 1.0001 if self.etas else out

    return drifted


def _drift_first_eta(update):
    """Wrap ``_Factor.update`` so that each factor stores its first eta
    with the values 0.1% off: every solve through the factor drifts."""

    def drifted(self, pos, w, idx):
        update(self, pos, w, idx)
        if len(self.etas) == 1:
            p, idx, vals, dp = self.etas[0]
            self.etas[0] = (p, idx, vals * 1.001, dp)

    return drifted


def _shifted(recompute):
    """Wrap ``_recompute_basics`` so that every basic value is 1e-4 off."""

    def shifted(self, *args):
        return recompute(self, *args) + 1e-4

    return shifted


class TestStallGuard:
    """A stall is final when the primal meets the rows and the duals price
    the basic columns at zero, both within tolerance.  Otherwise the basis
    is refactorized and priced again."""

    # 43 rows; its root LP takes 89 dual steps from the crash basis, with
    # one refactorization after the 64th
    MODEL_PARAMS = GenParams(
        businesses=3, campaigns_per_business=12, levels_per_campaign=4,
        budget_tightness=0.3, seed=1,
    )

    @staticmethod
    def _solve_counting(model, monkeypatch):
        """Solve cold; return the solution and every factorized basis."""
        engine = SimplexEngine(model)
        factorized = []
        factorize = engine._factorize

        def recorded(basis):
            factorized.append(basis.copy())
            return factorize(basis)

        monkeypatch.setattr(engine, "_factorize", recorded)
        return engine.solve(), factorized

    def test_clean_stall_is_final(self, monkeypatch):
        model = build_model(generate_instance(self.MODEL_PARAMS))
        sol, factorized = self._solve_counting(model, monkeypatch)
        assert (sol.status, sol.iterations) == (OPTIMAL, 89)
        # the starting basis and the one after 64 etas: the stall is not
        # confirmed by a third
        assert len(factorized) == 2
        final_basis = np.flatnonzero(np.frombuffer(sol.basis, np.int8) == BASIC)
        assert not np.array_equal(np.sort(factorized[-1]), final_basis)

    @pytest.mark.parametrize(
        "owner, name, wrap",
        [
            (_Factor, "update", _drift_first_eta),
            (_Factor, "ftran", _drift),
            (_Factor, "btran", _drift),
            (SimplexEngine, "_recompute_basics", _shifted),
        ],
        ids=["etas", "ftran", "btran", "basic-values"],
    )
    def test_drift_is_refactorized(self, monkeypatch, owner, name, wrap):
        # a drifted eta or ftran moves the basic values and, through the
        # etas, the duals; a drifted btran moves the duals only, and
        # shifted basic values leave the duals exact
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
        model = build_model(generate_instance(self.MODEL_PARAMS))
        sol, factorized = self._solve_counting(model, monkeypatch)
        assert sol.status == OPTIMAL
        final_basis = np.flatnonzero(np.frombuffer(sol.basis, np.int8) == BASIC)
        assert len(factorized) >= 2
        np.testing.assert_array_equal(np.sort(factorized[-1]), final_basis)
        ref = scipy_reference(model)
        assert ref.status == 0
        ref_obj = -ref.fun
        assert abs(sol.objective - ref_obj) <= 1e-6 * max(1.0, abs(ref_obj))
        TestAgainstScipy._check_feasible(model, sol.primal)


class TestFactorUpdates:
    def test_sparse_etas_match_dense_solves(self):
        rng = np.random.default_rng(5)
        m = 30
        bmat = np.eye(m) * 4.0
        for i, j in rng.integers(0, m, size=(40, 2)):
            bmat[i, j] += rng.normal()
        # the rows with only their diagonal entry are pairwise disjoint:
        # they are the GUB rows
        blocks = _gub_blocks(scipy.sparse.csc_matrix(bmat), (bmat != 0.0).sum(axis=1) == 1)
        assert blocks.gub_rows.size >= 2
        factor = _Factor(blocks, np.arange(m))
        eye = np.eye(m)
        for _ in range(25):
            col = np.zeros(m)
            col[rng.choice(m, size=3, replace=False)] = rng.normal(0, 2, 3)
            w = factor.ftran(col)
            pos = int(np.argmax(np.abs(w)))
            bmat[:, pos] = col
            factor.update(pos, w, np.flatnonzero(w))
            # unit vectors leave most eta pivots at zero; ones fill them
            for b in [*eye, np.ones(m)]:
                np.testing.assert_allclose(
                    factor.ftran(b), np.linalg.solve(bmat, b), rtol=0, atol=1e-10
                )
                np.testing.assert_allclose(
                    factor.btran(b), np.linalg.solve(bmat.T, b), rtol=0, atol=1e-10
                )
        assert len(factor.etas) == 25


def assert_solves_match(engine: SimplexEngine, basis: np.ndarray, rng) -> None:
    """ftran and btran of ``engine``'s factor of ``basis`` against dense
    solves, on unit vectors and random ones."""
    bmat = engine._aug[:, basis].toarray()
    factor = engine._factorize(basis)
    m = basis.size
    for b in [*np.eye(m)[rng.choice(m, size=min(m, 5), replace=False)], rng.normal(size=m)]:
        scale = max(1.0, float(np.abs(b).max()))
        np.testing.assert_allclose(
            factor.ftran(b), np.linalg.solve(bmat, b), rtol=0, atol=1e-9 * scale
        )
        np.testing.assert_allclose(
            factor.btran(b), np.linalg.solve(bmat.T, b), rtol=0, atol=1e-9 * scale
        )


class TestGubFactor:
    """The basis factor through its GUB rows: one key column per
    convexity row and a dense LU of the linking rows' Schur complement."""

    @staticmethod
    def _basis(token: bytes) -> np.ndarray:
        return np.flatnonzero(np.frombuffer(token, np.int8) == BASIC)

    def test_convexity_rows_are_the_gub_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_bid_model(rng)
            engine = SimplexEngine(model)
            names = [model.rows[i].name for i in engine._blocks.gub_rows]
            assert names == [r.name for r in model.rows if r.name.startswith("CVX_")]

    def test_convexity_rows_are_the_gub_rows_of_a_lone_campaign(self, suite1):
        # a business with one campaign has a budget row no larger than that
        # campaign's convexity row; only the convexity row is an equality,
        # and the crash from the convexity rows is dual feasible
        lone = 0
        for inst in suite1:
            model = build_model(inst)
            engine = SimplexEngine(model)
            names = [model.row_names[i] for i in engine._blocks.gub_rows]
            assert names == [name for name in model.row_names if name.startswith("CVX_")]
            crash = engine._crash_vstat(engine.base_lower, engine.base_upper)
            assert dual_infeasibility(engine, crash.tobytes()) <= engine.opt_tol
            owners = [c.business_id for c in inst.campaigns]
            lone += any(owners.count(b.id) == 1 for b in inst.businesses)
        assert lone == 72

    def test_solves_on_generated_bases(self):
        # cold, root-optimal and warm children's bases
        rng = np.random.default_rng(5)
        bases = 0
        for _ in range(12):
            model = random_bid_model(rng)
            engine = SimplexEngine(model)
            assert_solves_match(engine, np.arange(engine.n, engine.n + engine.m), rng)
            root = engine.solve()
            assert root.status == OPTIMAL
            assert_solves_match(engine, self._basis(root.basis), rng)
            for _ in range(3):
                child = engine.solve(
                    bounds=tighten(rng, model, root.primal), warm=root.basis
                )
                assert_solves_match(engine, self._basis(child.basis), rng)
                bases += 1
        assert bases == 36

    def test_solves_when_every_row_overlaps(self):
        # a column shared by every row leaves no two rows disjoint: W is
        # the whole basis
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(40):
            model = random_sparse_model(rng)
            rows = tuple(
                LpRow(r.name, r.sense, r.rhs, tuple(sorted({0: 1.0, **dict(r.coeffs)}.items())))
                for r in model.rows
            )
            model = from_tuples(columns=model.columns, rows=rows)
            engine = SimplexEngine(model)
            assert engine._blocks.gub_rows.size == 0
            sol = engine.solve()
            if sol.status == OPTIMAL:
                assert_solves_match(engine, self._basis(sol.basis), rng)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("case", ["master", "overlapping", "disjoint"])
    def test_gub_rows_are_disjoint_equality_rows(self, case):
        # master: a Lagrangian master's <= cuts, t in every row;
        # overlapping: a and b are equality rows that share x1;
        # disjoint: a and b are GUB rows, c is disjoint but a <= row, and a
        # stored zero of b in x0 is not an entry
        cols = tuple(LpColumn(f"x{j}", 1.0, 0.0, 1.0) for j in range(5))
        link = LpRow("d", "L", 3.0, tuple((j, 1.0) for j in range(5)))
        rows, gub = {
            "master": ((
                LpRow("cut0", "L", 1.0, ((0, 1.0), (1, 2.0), (4, -1.0))),
                LpRow("cut1", "L", 0.0, ((0, -1.0), (4, -1.0))),
                LpRow("cut2", "L", 2.0, ((2, 1.0), (3, 1.0), (4, -1.0))),
            ), []),
            "overlapping": ((
                LpRow("a", "E", 1.0, ((0, 1.0), (1, 1.0))),
                LpRow("b", "E", 1.0, ((1, 1.0), (2, 1.0), (3, 1.0))),
                link,
            ), []),
            "disjoint": ((
                LpRow("a", "E", 1.0, ((0, 1.0), (1, 1.0))),
                LpRow("b", "E", 1.0, ((0, 0.0), (2, 1.0), (3, 1.0))),
                LpRow("c", "L", 1.0, ((4, 1.0),)),
                link,
            ), [0, 1]),
        }[case]
        engine = SimplexEngine(from_tuples(columns=cols, rows=rows))
        blocks = engine._blocks
        assert blocks.gub_rows.tolist() == gub
        links = [i for i in range(engine.m) if i not in gub]
        assert blocks.perm.tolist() == gub + links
        assert blocks.unperm[blocks.perm].tolist() == list(range(engine.m))
        dense = engine._aug.toarray()
        for j in range(engine.n + engine.m):
            hit = [slot for slot, i in enumerate(gub) if dense[i, j] != 0.0]
            assert blocks.slot[j] == (hit[0] if hit else -1)
            assert blocks.gval[j] == (dense[gub[hit[0]], j] if hit else 0.0)
            lo, hi = blocks.indptr[j], blocks.indptr[j + 1]
            rows_j = [k for k, i in enumerate(links) if dense[i, j] != 0.0]
            assert blocks.indices[lo:hi].tolist() == rows_j
            assert blocks.data[lo:hi].tolist() == [dense[links[k], j] for k in rows_j]
        sol = engine.solve()
        ref = scipy_reference(engine.model)
        assert sol.status == OPTIMAL and ref.status == 0
        assert abs(sol.objective + ref.fun) <= 1e-9

    def test_stored_zero_is_not_a_key(self):
        # a: x0 (+ 0 x1) = 1 and b: x1 + x2 = 1 are disjoint once the
        # stored zero is dropped; c links all three columns
        model = from_tuples(
            columns=tuple(LpColumn(f"x{j}", 1.0, 0.0, 1.0) for j in range(3)),
            rows=(
                LpRow("a", "E", 1.0, ((0, 1.0), (1, 0.0))),
                LpRow("b", "E", 1.0, ((1, 1.0), (2, 1.0))),
                LpRow("c", "L", 2.5, ((0, 1.0), (1, 2.0), (2, 1.0))),
            ),
        )
        engine = SimplexEngine(model)
        assert engine._aug[0, 1] == 0.0 and engine._aug.nnz == 10  # stored
        assert engine._blocks.gub_rows.tolist() == [0, 1]
        assert engine._blocks.slot[:3].tolist() == [0, 1, 1]
        # x1's stored zero cannot stand in for a's missing key
        with pytest.raises(RuntimeError, match="singular"):
            engine._factorize(np.array([1, 4, 5]))
        assert_solves_match(engine, np.array([1, 0, 5]), np.random.default_rng(0))
        sol = engine.solve()
        assert (sol.status, sol.objective) == (OPTIMAL, 2.0)

    def test_key_is_the_largest_entry_then_the_lowest_position(self):
        # a: x0 + 4 x1 = 1 (scaled to 0.25 and 1), b: x2 + x3 = 1, and c
        # links all four columns
        model = from_tuples(
            columns=tuple(LpColumn(f"x{j}", 1.0, 0.0, 1.0) for j in range(4)),
            rows=(
                LpRow("a", "E", 1.0, ((0, 1.0), (1, 4.0))),
                LpRow("b", "E", 1.0, ((2, 1.0), (3, 1.0))),
                LpRow("c", "L", 3.0, ((0, 1.0), (1, 1.0), (2, 1.0), (3, 2.0))),
            ),
        )
        engine = SimplexEngine(model)
        assert engine._blocks.gub_rows.tolist() == [0, 1]
        factor = engine._factorize(np.array([0, 3, 1]))
        # a's key is x1 (position 2), b's is x3 (its only basic column)
        assert factor._order[:2].tolist() == [2, 1]
        factor = engine._factorize(np.array([3, 1, 2]))
        # x3 and x2 tie in b: the lower position, 0, wins
        assert factor._order[:2].tolist() == [1, 0]
        assert_solves_match(engine, np.array([3, 1, 2]), np.random.default_rng(1))

    def test_basis_without_a_convexity_column_falls_back_to_cold(self):
        model = build_model(generate_instance(TestStallGuard.MODEL_PARAMS))
        engine = SimplexEngine(model)
        root = engine.solve()
        vstat = np.frombuffer(root.basis, np.int8).copy()
        cvx = model.rows[0]
        members = [j for j, _ in cvx.coeffs] + [engine.n]
        dropped = [j for j in members if vstat[j] == BASIC]
        vstat[dropped] = AT_LOWER
        spare = [
            j for j in range(engine.n, engine.n + engine.m)
            if vstat[j] != BASIC and j not in members
        ]
        vstat[spare[: len(dropped)]] = BASIC
        assert np.count_nonzero(vstat == BASIC) == engine.m
        with pytest.raises(RuntimeError, match="singular"):
            engine._factorize(self._basis(vstat.tobytes()))
        cold = engine.solve()
        assert same_solution(engine.solve(warm=vstat.tobytes()), cold)


class TestPinnedPivots:
    def test_root_lp_of_a_300_campaign_model(self, scale_base):
        # dual steps from the crash basis: a change of pivot anywhere in
        # the 288 iterations moves one or the other (the primal loop from
        # the all-logical basis took 956)
        model = build_model(scale_suite(scale_base, [300])[0])
        sol = SimplexEngine(model).solve()
        assert sol.status == OPTIMAL
        assert sol.iterations == 288
        assert repr(sol.objective) == "48348.12677584858"

    def test_root_lp_under_blands_rule(self, scale_base, monkeypatch):
        # a degenerate dual step would hand over to the primal loop at
        # once, and Bland's rule would take over there; the crash's dual
        # steps take none (the primal loop alone took 1 189)
        monkeypatch.setattr(simplex, "BLAND_AFTER", 1)
        model = build_model(scale_suite(scale_base, [300])[0])
        sol = SimplexEngine(model).solve()
        assert sol.status == OPTIMAL
        assert sol.iterations == 288
        assert repr(sol.objective) == "48348.12677584858"


def tighten(rng: np.random.Generator, model: LpModel, primal) -> dict:
    """New bounds for 1-3 random columns, each excluding the parent's
    value from below or above, or fixing the column anywhere in its
    range.  Many such children are infeasible."""
    n = len(model.columns)
    bounds = {}
    for j in rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False):
        col = model.columns[int(j)]
        lo = col.lower if math.isfinite(col.lower) else primal[j] - 5.0
        hi = col.upper if math.isfinite(col.upper) else primal[j] + 5.0
        v = min(max(primal[j], lo), hi)
        kind = rng.random()
        if kind < 0.4:
            bounds[int(j)] = (col.lower, float(rng.uniform(lo, v)))
        elif kind < 0.8:
            bounds[int(j)] = (float(rng.uniform(v, hi)), col.upper)
        else:
            a = float(rng.uniform(lo, hi))
            bounds[int(j)] = (a, a)
    return bounds


def dual_infeasibility(engine: SimplexEngine, token) -> float:
    """How far the basis ``token`` is from dual feasible under the model's
    own bounds, from a dense solve: 0 when every reduced cost has the
    right sign."""
    vstat = np.frombuffer(token, np.int8)
    aug = engine._aug.toarray()
    d = engine.cost - aug.T @ dense_duals(aug, engine.cost, token)
    lower, upper = engine.base_lower, engine.base_upper
    movable = (vstat != BASIC) & (upper > lower)
    free = movable & ~np.isfinite(lower) & ~np.isfinite(upper)
    wrong = np.zeros_like(d)
    wrong[movable & (vstat == AT_LOWER)] = -d[movable & (vstat == AT_LOWER)]
    wrong[movable & (vstat == AT_UPPER)] = d[movable & (vstat == AT_UPPER)]
    wrong[free] = np.abs(d[free])
    return float(wrong.max(initial=0.0))


class TestDualSimplex:
    """A warm start whose basis is dual feasible under the new bounds
    re-solves with dual simplex steps; any other hands over to the primal
    simplex.  Every answer must agree with scipy's HiGHS, under the
    default anti-cycling threshold and under one that hands over at the
    first degenerate step."""

    @pytest.fixture(params=[50, 1], ids=["bland-after-50", "bland-after-1"])
    def bland_after(self, request, monkeypatch):
        monkeypatch.setattr(simplex, "BLAND_AFTER", request.param)
        return request.param

    @staticmethod
    def _children(make_model, seed: int, models: int):
        """(model, engine, parent, child bounds): three children of every
        model whose LP solves to optimality."""
        rng = np.random.default_rng(seed)
        for _ in range(models):
            model = make_model(rng)
            engine = SimplexEngine(model)
            parent = engine.solve()
            if parent.status != OPTIMAL:
                continue
            for _ in range(3):
                yield model, engine, parent, tighten(rng, model, parent.primal)

    @pytest.mark.parametrize(
        "make_model, seed, models",
        [
            (random_model, 31, 120),
            (random_sparse_model, 37, 60),
            (random_bid_model, 47, 40),
        ],
        ids=["random", "sparse", "bidding"],
    )
    def test_warm_children_agree_with_scipy(
        self, bland_after, dual_log, make_model, seed, models
    ):
        statuses = []
        for model, engine, parent, bounds in self._children(make_model, seed, models):
            dual_log.clear()
            child = engine.solve(bounds=bounds, warm=parent.basis)
            assert len(dual_log) == 1
            statuses.append((child.status, dual_log[0]))
            ref = scipy_reference(model, bounds)
            if child.status == OPTIMAL:
                assert ref.status == 0, bounds
                ref_obj = -ref.fun
                scale = max(1.0, abs(ref_obj))
                assert abs(child.objective - ref_obj) <= 1e-6 * scale, bounds
            else:
                assert (child.status, ref.status) == (INFEASIBLE, 2), bounds
        dual_steps = [dual for _, dual in statuses if dual[1] > 0]
        assert len(dual_steps) >= 30
        assert max(iters for _, iters in dual_steps) >= 3
        assert sum(status == OPTIMAL for status, _ in statuses) >= 30
        assert sum(dual[0] == INFEASIBLE for _, dual in statuses) >= 10

    @pytest.mark.parametrize("make_model", [random_model, random_sparse_model])
    def test_dual_infeasible_token_takes_the_primal_path(
        self, bland_after, dual_log, make_model
    ):
        # a solve cut off after k iterations leaves a basis that is
        # rarely dual feasible
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(80):
            model = make_model(rng)
            engine = SimplexEngine(model)
            cold = engine.solve()
            cut = engine.solve(max_iterations=int(rng.integers(1, 6)))
            if cut.status != ITERATION_LIMIT or dual_infeasibility(engine, cut.basis) < 1e-6:
                continue
            dual_log.clear()
            warm = engine.solve(warm=cut.basis)
            assert dual_log == [(None, 0)]
            assert warm.status == cold.status
            if cold.status == OPTIMAL:
                assert abs(warm.objective - cold.objective) <= 1e-7 * max(
                    1.0, abs(cold.objective)
                )
            checked += 1
        assert checked >= 15

    def test_ratio_ties_go_to_the_largest_pivot_then_the_lowest_index(self, dual_log):
        # x1 - x2 - 2 x3 - 2 x4 <= 4 at zero cost: raising x1 to 6 leaves
        # the row 2 short, and x2, x3 and x4 tie at ratio 0
        model = from_tuples(
            columns=tuple(LpColumn(f"x{j}", 0.0, 0.0, 10.0) for j in range(1, 5)),
            rows=(LpRow("r", "L", 4.0, ((0, 1.0), (1, -1.0), (2, -2.0), (3, -2.0))),),
        )
        engine = SimplexEngine(model)
        parent = engine.solve()
        sol = engine.solve(bounds={0: (6.0, 10.0)}, warm=parent.basis)
        assert dual_log == [(None, 0), (None, 1)]
        assert (sol.status, sol.primal.tolist()) == (OPTIMAL, [6.0, 0.0, 1.0, 0.0])

    def test_violation_is_recomputed_before_infeasible(self, dual_log, monkeypatch):
        # x = 1 with x in [0, 1]: basic values shifted 1e-4 up show x past
        # its upper bound, and no column can repair the row, but the row
        # itself puts x at 1.  The dual phase hands over instead of
        # calling the LP infeasible.
        model = from_tuples(
            columns=(LpColumn("x", 1.0, 0.0, 1.0),),
            rows=(LpRow("r", "E", 1.0, ((0, 1.0),)),),
        )
        monkeypatch.setattr(
            SimplexEngine, "_recompute_basics", _shifted(SimplexEngine._recompute_basics)
        )
        SimplexEngine(model).solve(warm=bytes((BASIC, AT_LOWER)))
        assert dual_log == [(None, 0)]

    def test_phase1_stall_is_refined_before_infeasible(self, monkeypatch):
        # basic values shifted 1e-4 can leave a phase-1 stall whose only
        # violations the refinement step removes: it goes on in phase 2
        monkeypatch.setattr(
            SimplexEngine, "_recompute_basics", _shifted(SimplexEngine._recompute_basics)
        )
        optima = 0
        for model, engine, parent, bounds in self._children(random_model, 31, 120):
            child = engine.solve(bounds=bounds, warm=parent.basis)
            if scipy_reference(model, bounds).status == 0:
                assert child.status != INFEASIBLE, bounds
                optima += 1
        assert optima >= 100

    @staticmethod
    def _long_child(dual_log):
        """A sparse child whose dual phase takes at least three steps and
        ends primal feasible."""
        for model, engine, parent, bounds in TestDualSimplex._children(
            random_sparse_model, 41, 60
        ):
            dual_log.clear()
            engine.solve(bounds=bounds, warm=parent.basis)
            status, iters = dual_log[0]
            if status is None and iters >= 3:
                return engine, parent, bounds
        pytest.fail("no child takes three dual steps")

    def test_iteration_limit_inside_the_dual_phase(self, dual_log):
        engine, parent, bounds = self._long_child(dual_log)
        dual_log.clear()
        sol = engine.solve(bounds=bounds, warm=parent.basis, max_iterations=1)
        assert (sol.status, sol.iterations) == (ITERATION_LIMIT, 1)
        assert dual_log == [(ITERATION_LIMIT, 1)]

    def test_refactorization_inside_the_dual_phase(self, dual_log, monkeypatch):
        engine, parent, bounds = self._long_child(dual_log)
        want = engine.solve(bounds=bounds, warm=parent.basis)
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
        factorized = []
        factorize = engine._factorize

        def counted(basis):
            factorized.append(basis.copy())
            return factorize(basis)

        monkeypatch.setattr(engine, "_factorize", counted)
        dual_log.clear()
        got = engine.solve(bounds=bounds, warm=parent.basis)
        assert dual_log[0][0] is None
        # the start basis comes from the memo; every dual step refactorizes
        assert len(factorized) >= dual_log[0][1] >= 3
        assert got.status == want.status == OPTIMAL
        assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))

    def test_deadline_inside_the_dual_phase(self, dual_log, monkeypatch):
        engine, parent, bounds = self._long_child(dual_log)
        # a clock that reads 0, 1, 2, ...: the third check is past 1.5
        ticks = iter(range(1_000))
        monkeypatch.setattr(
            simplex, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        dual_log.clear()
        sol = engine.solve(bounds=bounds, warm=parent.basis, deadline=1.5)
        assert (sol.status, sol.iterations) == (ITERATION_LIMIT, 2)
        assert dual_log == [(ITERATION_LIMIT, 2)]


class TestCrash:
    """A cold solve starts from the crash basis: in each GUB row, the
    movable column with the lowest cost per unit of its positive entry is
    basic; every other row keeps its logical.  With the linking rows'
    duals at zero that basis is dual feasible when every column lies in a
    GUB row, and the dual phase runs from it."""

    def test_lowest_cost_per_unit_then_the_lowest_index(self):
        # maximize; a: x0 + 2 x1 + x2 = 1 (scaled by 1/2) where x1 and x2
        # tie at 6 per unit; b: x3 + x4 - x5 = 1 where x4 is fixed and x5
        # has a negative entry; c: x6 <= 1 is disjoint but not an equality,
        # so it is no GUB row and keeps its logical; d links every column
        objs = (2.0, 6.0, 3.0, 1.0, 5.0, -100.0, 1.0)
        bounds = [(0.0, 1.0)] * 7
        bounds[4] = (0.0, 0.0)
        model = from_tuples(
            columns=tuple(
                LpColumn(f"x{j}", obj, lo, hi)
                for j, (obj, (lo, hi)) in enumerate(zip(objs, bounds))
            ),
            rows=(
                LpRow("a", "E", 1.0, ((0, 1.0), (1, 2.0), (2, 1.0))),
                LpRow("b", "E", 1.0, ((3, 1.0), (4, 1.0), (5, -1.0))),
                LpRow("c", "L", 1.0, ((6, 1.0),)),
                LpRow("d", "L", 1.5, tuple((j, 1.0) for j in range(7))),
            ),
        )
        engine = SimplexEngine(model)
        assert engine._blocks.gub_rows.tolist() == [0, 1]
        vstat = engine._crash_vstat(engine.base_lower, engine.base_upper)
        assert np.flatnonzero(vstat == BASIC).tolist() == [1, 3, 9, 10]
        assert vstat[7:9].tolist() == [AT_LOWER, AT_LOWER]
        # with x3 fixed at zero too, b has no candidate and keeps its logical
        vstat = engine._crash_vstat(
            engine.base_lower, np.where(np.arange(11) == 3, 0.0, engine.base_upper)
        )
        assert np.flatnonzero(vstat == BASIC).tolist() == [1, 8, 9, 10]
        sol = engine.solve()
        ref = scipy_reference(model)
        assert sol.status == OPTIMAL and ref.status == 0
        assert abs(sol.objective + ref.fun) <= 1e-9

    def test_bidding_models_start_dual_feasible(self, dual_log):
        rng = np.random.default_rng(19)
        stepped = 0
        for _ in range(30):
            model = random_bid_model(rng)
            engine = SimplexEngine(model)
            crash = engine._crash_vstat(engine.base_lower, engine.base_upper)
            campaigns = sum(row.name.startswith("CVX_") for row in model.rows)
            assert np.count_nonzero(crash[: engine.n] == BASIC) == campaigns
            assert dual_infeasibility(engine, crash.tobytes()) <= engine.opt_tol
            dual_log.clear()
            sol = engine.solve()
            assert sol.status == OPTIMAL
            assert len(dual_log) == 1 and dual_log[0][0] is None
            stepped += dual_log[0][1] > 0
        assert stepped >= 15

    @pytest.mark.parametrize("drifted", [False, True])
    def test_row_and_column_pivots_must_agree(self, monkeypatch, drifted):
        # a btran 0.01% off once the factor holds etas gives every pivot
        # row an alpha_rq that the ftran's w_r does not repeat: the dual
        # phase hands over no d, and the primal loop prices afresh
        if drifted:
            monkeypatch.setattr(_Factor, "btran", _drift(_Factor.btran))
        handed = []
        dual_phase = SimplexEngine._dual_phase

        def recorded(self, *args):
            out = dual_phase(self, *args)
            handed.append(out[1])
            return out

        monkeypatch.setattr(SimplexEngine, "_dual_phase", recorded)
        model = build_model(generate_instance(TestStallGuard.MODEL_PARAMS))
        sol = SimplexEngine(model).solve()
        assert sol.status == OPTIMAL
        assert len(handed) == 1 and (handed[0] is None) == drifted

    def test_without_two_gub_rows_the_dual_check_decides(self, dual_log):
        # the cold start is the all-logical basis, and the dual phase's own
        # check turns away every one that is not dual feasible
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(150):
            model = random_model(rng)
            engine = SimplexEngine(model)
            if engine._blocks.gub_rows.size:
                continue
            lower, upper = engine.base_lower, engine.base_upper
            cold = engine._cold_vstat(lower, upper)
            np.testing.assert_array_equal(engine._crash_vstat(lower, upper), cold)
            dual_log.clear()
            engine.solve()
            assert len(dual_log) == 1
            if dual_infeasibility(engine, cold.tobytes()) > engine.opt_tol:
                assert dual_log == [(None, 0)]
                checked += 1
        assert checked >= 100

    def test_dual_feasible_all_logical_start_takes_dual_steps(self, dual_log):
        # maximize -x0 - 2 x1 with x0 + x1 >= 3 and x0 + 3 x1 >= 4: the rows
        # overlap, so there are no GUB rows, and every column sits at its
        # lower bound with a nonpositive profit
        model = from_tuples(
            columns=(LpColumn("x0", -1.0, 0.0, 10.0), LpColumn("x1", -2.0, 0.0, 10.0)),
            rows=(
                LpRow("a", "L", -3.0, ((0, -1.0), (1, -1.0))),
                LpRow("b", "L", -4.0, ((0, -1.0), (1, -3.0))),
            ),
        )
        engine = SimplexEngine(model)
        assert engine._blocks.gub_rows.size == 0
        sol = engine.solve()
        assert len(dual_log) == 1 and dual_log[0][0] is None and dual_log[0][1] >= 1
        ref = scipy_reference(model)
        assert sol.status == OPTIMAL and ref.status == 0
        assert abs(sol.objective + ref.fun) <= 1e-9
        np.testing.assert_allclose(sol.primal, (2.5, 0.5), rtol=0, atol=1e-9)

    def test_singular_crash_falls_back_to_the_all_logical_basis(
        self, dual_log, monkeypatch
    ):
        rng = np.random.default_rng(29)
        for _ in range(10):
            model = random_bid_model(rng)
            engine = SimplexEngine(model)
            factorized = []
            factorize = engine._factorize

            def first_fails(basis):
                factorized.append(basis.copy())
                if len(factorized) == 1:
                    raise RuntimeError("singular basis")
                return factorize(basis)

            monkeypatch.setattr(engine, "_factorize", first_fails)
            dual_log.clear()
            sol = engine.solve()
            crash = engine._crash_vstat(engine.base_lower, engine.base_upper)
            np.testing.assert_array_equal(factorized[0], np.flatnonzero(crash == BASIC))
            np.testing.assert_array_equal(
                factorized[1], np.arange(engine.n, engine.n + engine.m)
            )
            assert dual_log == [(None, 0)]
            ref = scipy_reference(model)
            assert sol.status == OPTIMAL and ref.status == 0
            assert abs(sol.objective + ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))
            TestAgainstScipy._check_feasible(model, sol.primal)

    def test_lagrangian_bound_at_zero_covers_the_root(self, suite1, scale_base):
        # L(0), each campaign's best return summed, relaxes every row but
        # the convexity rows: it bounds the root LP from above
        for inst in [*suite1, scale_suite(scale_base, [300])[0]]:
            model = build_model(inst)
            root = SimplexEngine(model).solve()
            assert root.status == OPTIMAL
            best = sum(
                max(model.columns[j].objective for j, _ in row.coeffs)
                for row in model.rows
                if row.name.startswith("CVX_")
            )
            assert best >= root.objective - 1e-9 * max(1.0, abs(best))


def gated_model(seed: int) -> LpModel:
    """200 campaigns over 2 businesses: 200 convexity rows and 5 linking
    rows, enough GUB rows per linking row for the Lagrangian estimate."""
    base = GenParams(
        businesses=2, campaigns_per_business=1, levels_per_campaign=(2, 5),
        budget_tightness=0.7, impression_tightness=1.5, seed=seed,
    )
    return build_model(scale_suite(base, [200])[0])


def unmeetable_link_model(sense: str) -> LpModel:
    """40 convexity rows of 3 columns and one linking row that no choice
    of levels meets: the Lagrangian dual is unbounded below."""
    rng = np.random.default_rng(31)
    cols, rows = [], []
    for g in range(40):
        cols.extend(LpColumn(f"x{g}_{j}", float(rng.uniform(0, 10)), 0.0, 1.0) for j in range(3))
        rows.append(LpRow(f"g{g}", "E", 1.0, tuple((3 * g + j, 1.0) for j in range(3))))
    weights = rng.uniform(1.0, 2.0, len(cols)).tolist()
    rhs = -1.0 if sense == "L" else 200.0  # every activity is in [40, 80]
    rows.append(LpRow("link", sense, rhs, tuple(enumerate(weights))))
    return from_tuples(columns=tuple(cols), rows=tuple(rows))


def master_solves(monkeypatch, model: LpModel) -> list:
    """The engines of every solve of a model other than ``model``: the
    Lagrangian estimate's masters."""
    masters = []
    solve = SimplexEngine.solve

    def counted(self, *args, **kwargs):
        if self.model is not model:
            masters.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SimplexEngine, "solve", counted)
    return masters


@pytest.fixture
def estimates(monkeypatch):
    """The return value of every Lagrangian estimate."""
    log = []
    estimate = SimplexEngine._estimate_duals

    def recorded(self, *args):
        out = estimate(self, *args)
        log.append(out)
        return out

    monkeypatch.setattr(SimplexEngine, "_estimate_duals", recorded)
    return log


class TestLagrangianEstimate:
    """A cold solve of a model with at least ``_GUB_PER_LINK`` GUB rows
    per linking row crashes from a box-step cutting-plane estimate of the
    linking rows' duals u; every other model keeps the u = 0 crash."""

    def test_bound_covers_the_root_at_random_multipliers(self, suite1, scale_base):
        # L(u) relaxes the linking rows: at every u >= 0 it bounds the root
        # LP from above, computed apart from the simplex
        rng = np.random.default_rng(37)
        for inst in [*suite1, scale_suite(scale_base, [300])[0]]:
            engine = SimplexEngine(build_model(inst))
            root = engine.solve()
            assert root.status == OPTIMAL
            evaluate, _ = engine._lagrangian(engine.base_lower, engine.base_upper)
            links = engine.m - engine._blocks.gub_rows.size
            tol = 1e-9 * max(1.0, abs(root.objective))
            for scale in (0.0, 1.0, 100.0, 1e4):
                u = scale * rng.uniform(0.0, 2.0, links) * (rng.random(links) < 0.7)
                value, _ = evaluate(u)
                assert value >= root.objective - tol

    def test_estimate_reaches_the_root_bound(self, scale_base, estimates, monkeypatch):
        # the acceptance 6a model: the estimate stops with L within its gap
        # of the root objective, which a stop on a box-bound gap misses
        model = build_model(scale_suite(scale_base, [2704])[0])
        masters = master_solves(monkeypatch, model)
        engine = SimplexEngine(model)
        root = engine.solve()
        assert root.status == OPTIMAL
        assert len(estimates) == 1 and estimates[0] is not None
        evaluate, _ = engine._lagrangian(engine.base_lower, engine.base_upper)
        value, _ = evaluate(estimates[0])
        assert root.objective <= value <= root.objective + simplex._ESTIMATE_GAP * abs(value)
        assert root.iterations == 233  # 2 485 from the u = 0 crash
        assert repr(root.objective) == "424328.3922488976"
        assert len(masters) == 78
        assert hashlib.sha256(estimates[0].tobytes()).hexdigest()[:16] == "a201bca414949735"

    def test_gated_models_agree_with_scipy(self, estimates):
        for seed in range(5):
            model = gated_model(seed)
            sol = SimplexEngine(model).solve()
            ref = scipy_reference(model)
            assert sol.status == OPTIMAL and ref.status == 0
            assert abs(sol.objective + ref.fun) <= 1e-9 * abs(ref.fun)
            TestAgainstScipy._check_feasible(model, sol.primal)
            TestAgainstScipy._check_duality(model, sol)
        assert len(estimates) == 5 and all(u is not None for u in estimates)

    def test_the_rule_keeps_the_tree_suite_and_t1_models_out(
        self, suite1, scale_base, t1_model, estimates
    ):
        for seed in range(7):  # the benchmark's tree workload
            params = GenParams(
                businesses=3, campaigns_per_business=12, levels_per_campaign=4,
                budget_tightness=0.3, seed=seed,
            )
            assert SimplexEngine(build_model(generate_instance(params))).solve().status == OPTIMAL
        for inst in suite1:
            SimplexEngine(build_model(inst)).solve()
        SimplexEngine(t1_model).solve()
        SimplexEngine(build_model(scale_suite(scale_base, [300])[0])).solve()
        assert estimates == []
        SimplexEngine(gated_model(0)).solve()
        assert len(estimates) == 1

    @pytest.mark.parametrize("sense", ["L"])
    def test_unmeetable_linking_rows_fall_back_to_u_zero(self, sense, estimates, monkeypatch):
        # L at the centre falls below the lowest objective of the
        # convexity rows' choices within three rounds (200 without that stop)
        model = unmeetable_link_model(sense)
        masters = master_solves(monkeypatch, model)
        engine = SimplexEngine(model)
        evaluate, floor = engine._lagrangian(engine.base_lower, engine.base_upper)
        lowest = sum(
            min(model.columns[j].objective for j, _ in row.coeffs) for row in model.rows[:-1]
        )
        assert math.isclose(floor, lowest, rel_tol=1e-12)
        t0 = time.perf_counter()
        sol = engine.solve()
        assert time.perf_counter() - t0 < 10.0
        assert len(masters) == 3
        assert estimates == [None]
        assert sol.status == INFEASIBLE
        assert scipy_reference(model).status == 2

    def test_an_equality_linking_row_leaves_no_gub_rows(self, estimates, monkeypatch):
        # the same model with its linking row an equality: the equality
        # rows overlap, so there are no GUB rows and nothing to estimate
        model = unmeetable_link_model("E")
        masters = master_solves(monkeypatch, model)
        engine = SimplexEngine(model)
        assert engine._blocks.gub_rows.size == 0
        sol = engine.solve()
        assert masters == [] and estimates == []
        assert sol.status == INFEASIBLE
        assert scipy_reference(model).status == 2

    def test_no_floor_where_l_does_not_bound_the_lp(self):
        # a lower bound above 0 voids L's bound on the LP, and the stop
        engine = SimplexEngine(gated_model(0))
        lower = engine.base_lower.copy()
        assert engine._lagrangian(lower, engine.base_upper)[1] > -math.inf
        lower[1] = 0.5
        assert engine._lagrangian(lower, engine.base_upper)[1] == -math.inf

    @pytest.mark.parametrize("failure", ["limit", "raise"])
    def test_master_failure_falls_back_to_u_zero(self, monkeypatch, estimates, failure):
        model = gated_model(1)
        baseline = SimplexEngine(model)
        monkeypatch.setattr(baseline, "_estimate_duals", lambda *args: None)
        expected = baseline.solve()
        solve = SimplexEngine.solve
        masters = []

        def failing(self, *args, **kwargs):
            if self.model is model:
                return solve(self, *args, **kwargs)
            masters.append(self)
            if len(masters) < 3:
                return solve(self, *args, **kwargs)
            if failure == "raise":
                raise RuntimeError("singular basis")
            return dataclasses.replace(solve(self, *args, **kwargs), status=ITERATION_LIMIT)

        monkeypatch.setattr(SimplexEngine, "solve", failing)
        assert same_solution(SimplexEngine(model).solve(), expected)
        assert len(masters) == 3 and estimates == [None]

    def test_deadline_stops_the_estimate(self, scale_base, estimates):
        model = build_model(scale_suite(scale_base, [2704])[0])
        sol = SimplexEngine(model).solve(deadline=time.perf_counter())
        assert sol.status == ITERATION_LIMIT and sol.iterations == 0
        assert estimates == [None]
