"""Bounded-variable simplex, primal and dual, with warm starts from an
opaque basis token.

The engine works on the augmented system ``A x + w = rhs`` where one
logical variable w is appended per row: ``[0, inf)`` for a <= row and
``[0, 0]`` for an equality row.  Any basis therefore always exists (the
all-logical one), and phase 1 is the composite kind: while any basic
variable violates its bounds, pricing runs against the gradient of the
total bound violation instead of the true objective.  No big-M terms,
no artificial columns.

Pivot rule: largest reduced cost (Dantzig), with Bland's smallest-index
rule engaged after 50 consecutive degenerate steps and released on the
first real step.  Rows are equilibrated by power-of-two factors, exact
in floating point; columns' reduced costs need no mapping back.  The
basis is factorized with SuperLU (``scipy.sparse.linalg.splu``) and
updated between refactorizations with product-form eta vectors.  When
pricing stalls, two residuals decide whether the etas can be trusted:
the rows' ``r = rhs - A x`` against ``feas_tol`` and the basic columns'
``A_B^T y - c_B`` against ``opt_tol``.  If either is past its tolerance
the basis is refactorized and priced again.  Otherwise the stall is
final, and one step of iterative refinement, ``x_B += B^-1 r``
(Wilkinson; Higham, "Accuracy and Stability of Numerical Algorithms",
ch. 12), cleans the last bits of the primal.

Iterations exploit hypersparsity (Hall & McKinnon, "Hyper-sparsity in
the revised simplex method and how to exploit it", 2005): the entering
column ``w = B^-1 a_j`` of the models this package builds has a handful
of nonzeros among thousands of rows.  Etas store only those nonzeros,
and the ratio test and the update of the basic values run over them
alone.  Pricing keeps one direction per variable (+1 at lower, -1 at
upper, 0 basic or fixed), changed only where a flip or a pivot changes
a status, so each iteration scores every column with one product.  The
ratio test visits a handful of entries, so it runs on Python floats:
the same IEEE operations, in the same order, as numpy's masks.  The
pivots are the ones the plain dense formulation takes.

The fixed cost of a solve matters as much at tree nodes, whose LPs
take a few pivots each on a small basis.  The engine keeps the factor
of the last starting basis (or the verdict that it is singular), so a
sibling node starting from the same parent basis skips the
factorization.  Pricing is skipped when none of its inputs changed
since the last pricing (a bound flip changes none of them in phase 2),
and an optimal solution's reduced costs are its final stall's phase-2
pricing.  Every reuse returns the very numbers a recomputation would.

A warm start re-solves with the bounded dual simplex first (Lemke, "The
dual method of solving the linear programming problem", 1954; Koberstein,
PhD thesis, Paderborn 2005).  A child node differs from its parent only
in tighter bounds, so the parent's optimal basis stays dual feasible:
every movable nonbasic column's reduced cost d has the right sign within
``opt_tol`` and every free one is within ``opt_tol`` of zero.  Each dual
iteration takes out the basic variable with the largest bound violation
(ties to the first position), computes its row alpha_r of B^-1 A with
one btran and one product, and brings in the eligible column with the
smallest |d_j / alpha_rj|, |alpha_rj| above the pivot tolerance; ties
within 1e-10 go to the largest |alpha_rj|, then to the lowest index.  d
is updated from alpha_r; the primal update, the etas and the
refactorizations are the primal loop's.  The start basis's d depends on
the basis alone, so it is kept with its factor for the siblings.  The
dual phase hands the basis to the primal loop when it is primal
feasible, when it was not dual feasible to begin with, after
``BLAND_AFTER`` consecutive degenerate dual steps, or when no column can
repair a row whose violation, recomputed from the rows as
``rho_r (rhs - A_N x_N)``, is within ``feas_tol``; past ``feas_tol`` that
row proves the LP infeasible.  The primal loop prices afresh, so every
optimum passes the same residual checks and refinement.  Cold solves
run the primal loop alone.

Maximization models are negated internally; the reported objective and
reduced costs are in the model's own (maximization) sense, so
at optimality a column sitting at its lower bound has reduced cost
<= +opt_tol and one at its upper bound has reduced cost >= -opt_tol.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .model import LpModel

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
BLAND_AFTER = 50

_PIVOT_TOL = 1e-9
_TIE_TOL = 1e-10
_REFACTOR_EVERY = 64


@dataclass(frozen=True)
class LpSolution:
    """Result of one solve.

    ``basis`` is an opaque ``bytes`` token: the warm start accepted by
    ``SimplexEngine.solve``, with no other meaning for callers.
    ``reduced_costs`` are given for ``OPTIMAL`` solves only, else None.
    """

    status: str
    objective: float
    primal: tuple[float, ...]
    reduced_costs: tuple[float, ...] | None
    iterations: int
    basis: bytes | None = None


class _Factor:
    """Sparse LU factorization of the basis plus product-form eta updates.

    Each eta keeps only the nonzeros of its column, so applying it costs
    work in proportion to them rather than to the basis size.

    Raises RuntimeError on a singular or near-singular basis: SuperLU
    rejects exact singularity itself, and a smallest pivot at or below
    1e-12 times the largest (or 1) is rejected here.
    """

    def __init__(self, bmat: scipy.sparse.csc_matrix):
        self._lu = scipy.sparse.linalg.splu(bmat.tocsc())
        diag = np.abs(self._lu.U.diagonal())
        if diag.size and diag.min() <= 1e-12 * max(1.0, diag.max()):
            raise RuntimeError("singular basis")
        # (pivot position, nonzero positions, their values, pivot value)
        self.etas: list[tuple[int, np.ndarray, np.ndarray, float]] = []

    def ftran(self, b: np.ndarray) -> np.ndarray:
        x = self._lu.solve(b)
        for p, idx, vals, dp in self.etas:
            xp = x.item(p)
            if xp == 0.0:
                continue  # the eta would only flip the sign of zeros
            xp /= dp
            x[idx] -= vals * xp
            x[p] = xp
        return x

    def btran(self, c: np.ndarray) -> np.ndarray:
        c = c.copy()
        for p, idx, vals, dp in reversed(self.etas):
            cp = c.item(p)
            c[p] = (cp - (vals.dot(c.take(idx)) - dp * cp)) / dp
        return self._lu.solve(c, trans="T")

    def update(self, pos: int, w: np.ndarray) -> None:
        idx = np.flatnonzero(w != 0.0)
        self.etas.append((pos, idx, w[idx], float(w[pos])))

    def fresh(self) -> _Factor:
        """The same LU without etas: the basis it factorized, anew."""
        twin = object.__new__(_Factor)
        twin._lu = self._lu
        twin.etas = []
        return twin


class SimplexEngine:
    """Reusable solver context for one LpModel.

    Construction does the sparse setup once; ``solve`` may then be
    called many times with different bound overrides and warm starts
    (the branch-and-bound driver does exactly that).  A context must
    not be shared between threads during a solve.
    """

    def __init__(
        self,
        model: LpModel,
        feas_tol: float = FEAS_TOL,
        opt_tol: float = OPT_TOL,
    ):
        self.model = model
        self.feas_tol = feas_tol
        self.opt_tol = opt_tol

        n = len(model.columns)
        m = len(model.rows)
        self.n = n
        self.m = m

        scale = np.ones(m)
        for i, row in enumerate(model.rows):
            biggest = max((abs(v) for _, v in row.coeffs), default=0.0)
            if biggest > 0.0:
                scale[i] = 2.0 ** (-round(math.log2(biggest)))

        rows_idx: list[int] = []
        cols_idx: list[int] = []
        data: list[float] = []
        for i, row in enumerate(model.rows):
            for j, v in row.coeffs:
                rows_idx.append(i)
                cols_idx.append(j)
                data.append(v * scale[i])
        amat = scipy.sparse.coo_matrix(
            (data, (rows_idx, cols_idx)), shape=(m, n)
        ).tocsc()
        self._aug = scipy.sparse.hstack(
            [amat, scipy.sparse.identity(m, format="csc")], format="csc"
        )
        self._aug_t = self._aug.T.tocsr()
        self.rhs = np.array([r.rhs for r in model.rows]) * scale

        sense_max = 1.0 if model.maximize else -1.0
        self.cost = np.zeros(n + m)
        self.cost[:n] = [-sense_max * c.objective for c in model.columns]
        self._obj = np.array([c.objective for c in model.columns])

        self.base_lower = np.empty(n + m)
        self.base_upper = np.empty(n + m)
        for j, c in enumerate(model.columns):
            self.base_lower[j] = c.lower
            self.base_upper[j] = c.upper
        for i, r in enumerate(model.rows):
            self.base_lower[n + i] = 0.0
            self.base_upper[n + i] = math.inf if r.sense == "L" else 0.0

        # The basic columns of the last solve's start, as bytes, their
        # factor (None when singular) and, once a warm start asked for
        # them, their -d (None until then).  Siblings in a tree start from
        # the same parent basis; keyed on the columns alone, the memo also
        # serves a start whose nonbasic statuses differ.
        self._start: tuple[bytes, _Factor | None, np.ndarray | None] = (b"", None, None)

    # -- helpers -------------------------------------------------------

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        lo, hi = self._aug.indptr[j], self._aug.indptr[j + 1]
        col[self._aug.indices[lo:hi]] = self._aug.data[lo:hi]
        return col

    def _nonbasic_values(self, vstat, lower, upper) -> np.ndarray:
        x = np.zeros(self.n + self.m)
        at_lo = vstat == AT_LOWER
        at_up = vstat == AT_UPPER
        lo_vals = np.where(np.isfinite(lower), lower, 0.0)
        up_vals = np.where(np.isfinite(upper), upper, 0.0)
        x[at_lo] = lo_vals[at_lo]
        x[at_up] = up_vals[at_up]
        return x

    def _cold_vstat(self, lower, upper) -> np.ndarray:
        """The all-logical basis."""
        vstat = np.full(self.n + self.m, AT_LOWER, dtype=np.int8)
        vstat[~np.isfinite(lower) & np.isfinite(upper)] = AT_UPPER
        vstat[self.n:] = BASIC
        return vstat

    def _factorize(self, basis: np.ndarray) -> _Factor:
        # The arrays ``self._aug[:, basis]`` holds, gathered directly.
        aug = self._aug
        starts = aug.indptr[basis]
        counts = aug.indptr[basis + 1] - starts
        indptr = np.zeros(basis.size + 1, dtype=aug.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return _Factor(
            scipy.sparse.csc_matrix(
                (aug.data[take], aug.indices[take], indptr), shape=(self.m, self.m)
            )
        )

    def _start_factor(self, basis: np.ndarray) -> _Factor | None:
        """A factor of the starting basis, or None when it is singular."""
        key = basis.tobytes()
        if key != self._start[0]:
            try:
                factor = self._factorize(basis)
            except RuntimeError:
                factor = None
            self._start = (key, factor, None)
        factor = self._start[1]
        return None if factor is None else factor.fresh()

    def _start_neg_d(self, factor, basis) -> np.ndarray:
        """-d of the starting basis.  It depends on the basis alone, not on
        the bounds, so it is kept with the basis's factor."""
        key, memo_factor, neg_d = self._start
        if neg_d is None:
            neg_d = self._aug_t @ factor.btran(self.cost[basis]) - self.cost
            self._start = (key, memo_factor, neg_d)
        return neg_d

    def _recompute_basics(self, factor, basis, vstat, lower, upper) -> np.ndarray:
        xn = self._nonbasic_values(vstat, lower, upper)
        xn[basis] = 0.0
        return factor.ftran(self.rhs - self._aug @ xn)

    # -- main ----------------------------------------------------------

    def solve(
        self,
        bounds: dict | None = None,
        warm: bytes | None = None,
        max_iterations: int | None = None,
        deadline: float | None = None,
    ) -> LpSolution:
        """Solve the LP relaxation (SOS sets ignored).

        ``bounds`` maps column positions or names to (lower, upper)
        overrides applied on top of the model bounds; fixing a column
        means lower == upper.  ``warm`` is the ``basis`` of an earlier
        solution of this engine; a token of the wrong length or with a
        singular basis falls back to the cold, all-logical basis.  A warm
        basis that is dual feasible under ``bounds`` is re-solved with
        dual simplex steps first.  The solve returns ``ITERATION_LIMIT``
        after ``max_iterations`` iterations or once ``time.perf_counter()``
        reaches ``deadline``, checked once per iteration.
        """
        n, m = self.n, self.m
        lower = self.base_lower.copy()
        upper = self.base_upper.copy()
        if bounds:
            for key, (lo, hi) in bounds.items():
                j = self.model.column_index[key] if isinstance(key, str) else key
                if lo > hi:
                    raise ValueError(f"bounds for column {key}: lower > upper")
                lower[j] = lo
                upper[j] = hi

        vstat: np.ndarray | None = None
        if warm is not None and len(warm) == n + m:
            cand = np.frombuffer(warm, np.int8).copy()
            if int(np.count_nonzero(cand == BASIC)) == m:
                vstat = cand
        dual_start = vstat is not None
        if vstat is None:
            vstat = self._cold_vstat(lower, upper)
        # Nonbasic statuses must still make sense under the new bounds.
        nb = vstat != BASIC
        snap_lo = nb & (vstat == AT_UPPER) & ~np.isfinite(upper)
        vstat[snap_lo] = AT_LOWER
        snap_up = nb & (vstat == AT_LOWER) & ~np.isfinite(lower) & np.isfinite(upper)
        vstat[snap_up] = AT_UPPER

        if max_iterations is None:
            max_iterations = 100 * (n + m) + 10_000

        basis = np.flatnonzero(vstat == BASIC)
        factor = self._start_factor(basis)
        if factor is None:
            dual_start = False
            vstat = self._cold_vstat(lower, upper)
            basis = np.flatnonzero(vstat == BASIC)
            factor = self._factorize(basis)
        basic_val = self._recompute_basics(factor, basis, vstat, lower, upper)

        free_var = ~np.isfinite(lower) & ~np.isfinite(upper)
        free_cols = np.flatnonzero(free_var)
        # Pricing direction: +1 at lower, -1 at upper, 0 when basic, fixed
        # or free (free columns are priced by |d| below).  Only the
        # entering and the leaving variable change it.
        dirn = np.where(vstat == AT_LOWER, 1.0, -1.0)
        dirn[(vstat == BASIC) | ~(upper > lower) | free_var] = 0.0
        lb_b = lower[basis]
        ub_b = upper[basis]
        iterations = 0
        status = None
        if dual_start:
            status, factor, basic_val, iterations = self._dual_phase(
                factor, basis, vstat, dirn, basic_val, lb_b, ub_b, lower, upper,
                free_cols, max_iterations, deadline,
            )
        degen_streak = 0
        bland = False
        priced = None  # the factor, eta count and masks of the last pricing

        while status is None:
            if iterations >= max_iterations or (
                deadline is not None and time.perf_counter() >= deadline
            ):
                status = ITERATION_LIMIT
                break

            viol_low = basic_val < lb_b - self.feas_tol
            viol_high = basic_val > ub_b + self.feas_tol
            in_phase1 = bool(viol_low.any() or viol_high.any())

            # neg_d = -d, computed as A^T y - c: exactly -(c - A^T y).  y
            # depends only on the factor, its etas and the masks; when none
            # changed, as after a bound flip in phase 2, the last one holds.
            key = (factor, len(factor.etas), viol_low.tobytes(), viol_high.tobytes())
            if key != priced:
                priced = key
                if in_phase1:
                    c_b = np.zeros(m)
                    c_b[viol_low] = -1.0
                    c_b[viol_high] = 1.0
                else:
                    c_b = self.cost[basis]
                aty = self._aug_t @ factor.btran(c_b)
                neg_d = aty if in_phase1 else aty - self.cost

            # score equals |d| on every eligible column, bit for bit, and
            # is <= opt_tol elsewhere: the same argmax and first eligible
            # index as masking the eligible columns.
            score = dirn * neg_d
            if free_cols.size:
                free_nb = free_cols[vstat[free_cols] != BASIC]
                score[free_nb] = np.abs(neg_d[free_nb])
            if bland:
                j = int(np.argmax(score > self.opt_tol))
            else:
                j = int(np.argmax(score))
            if not score[j] > self.opt_tol:
                # The stall stands when x meets the rows (A x = rhs) and y
                # prices the basic columns at zero (B^T y = c_B).  When the
                # etas let either drift past its tolerance, recompute the
                # values from a fresh factorization and price again.
                x = self._nonbasic_values(vstat, lower, upper)
                x[basis] = basic_val
                resid = self.rhs - self._aug @ x
                if factor.etas and (
                    np.max(np.abs(resid), initial=0.0) > self.feas_tol
                    or np.max(np.abs(aty[basis] - c_b), initial=0.0) > self.opt_tol
                ):
                    factor = self._factorize(basis)
                    basic_val = self._recompute_basics(factor, basis, vstat, lower, upper)
                    continue
                # One step of iterative refinement: an ftran, no
                # factorization.  x is rebuilt from basic_val below.
                basic_val += factor.ftran(resid)
                if in_phase1 and not (
                    (basic_val < lb_b - self.feas_tol) | (basic_val > ub_b + self.feas_tol)
                ).any():
                    continue  # the refinement removed the violation: phase 2
                status = INFEASIBLE if in_phase1 else OPTIMAL
                break

            if free_var[j]:
                sigma = 1.0 if neg_d[j] > 0 else -1.0
            else:
                sigma = 1.0 if vstat[j] == AT_LOWER else -1.0
            w = factor.ftran(self._column(j))
            # The ratio test runs over the nonzeros of w only: every other
            # basic variable keeps its value.  A handful of entries, so it
            # runs on Python floats: the same IEEE operations as numpy's.
            idx = np.flatnonzero(w != 0.0)
            rate = sigma * w[idx]
            target_down = lb_b[idx]
            target_up = ub_b[idx]
            if in_phase1:
                vl = viol_low[idx]
                vh = viol_high[idx]
                target_down, target_up = (
                    np.where(vh, target_up, np.where(vl, -math.inf, target_down)),
                    np.where(vl, target_down, np.where(vh, math.inf, target_up)),
                )
            rates = rate.tolist()
            ratios = []
            for r, v, down, up in zip(
                rates, basic_val[idx].tolist(), target_down.tolist(), target_up.tolist()
            ):
                if r > _PIVOT_TOL:
                    t = (v - down) / r
                elif r < -_PIVOT_TOL:
                    t = (up - v) / -r
                else:
                    t = math.inf
                ratios.append(0.0 if t < 0.0 else t)

            flip_range = upper[j] - lower[j]
            t_pivot = min(ratios, default=math.inf)
            if flip_range <= t_pivot:
                if not np.isfinite(flip_range):
                    if in_phase1:
                        raise RuntimeError("phase-1 direction unblocked; numerical failure")
                    status = UNBOUNDED
                    break
                basic_val[idx] -= flip_range * rate
                vstat[j] = AT_UPPER if vstat[j] == AT_LOWER else AT_LOWER
                dirn[j] = -dirn[j]
                step = flip_range
            else:
                if not math.isfinite(t_pivot):
                    if in_phase1:
                        raise RuntimeError("phase-1 direction unblocked; numerical failure")
                    status = UNBOUNDED
                    break
                tie = t_pivot + _TIE_TOL
                cand = [k for k, t in enumerate(ratios) if t <= tie]
                if not bland:
                    top = max(abs(rates[k]) for k in cand) - _TIE_TOL
                    cand = [k for k in cand if abs(rates[k]) >= top]
                k = min(cand, key=lambda k: basis[idx[k]])
                pos = int(idx[k])
                step = ratios[k]

                leaving = int(basis[pos])
                if rates[k] > 0:
                    side = AT_UPPER if viol_high[pos] else AT_LOWER
                else:
                    side = AT_LOWER if viol_low[pos] else AT_UPPER

                if free_var[j]:
                    enter_from = 0.0
                elif vstat[j] == AT_LOWER:
                    enter_from = lower[j] if np.isfinite(lower[j]) else 0.0
                else:
                    enter_from = upper[j]

                basic_val[idx] -= step * rate
                basic_val[pos] = enter_from + sigma * step
                vstat[leaving] = side
                vstat[j] = BASIC
                movable = upper[leaving] > lower[leaving]
                dirn[leaving] = (1.0 if side == AT_LOWER else -1.0) if movable else 0.0
                dirn[j] = 0.0
                basis[pos] = j
                lb_b[pos] = lower[j]
                ub_b[pos] = upper[j]
                factor.update(pos, w)

            if step <= _TIE_TOL:
                degen_streak += 1
                if degen_streak >= BLAND_AFTER:
                    bland = True
            else:
                degen_streak = 0
                bland = False

            iterations += 1
            if len(factor.etas) >= _REFACTOR_EVERY:
                factor = self._factorize(basis)
                basic_val = self._recompute_basics(factor, basis, vstat, lower, upper)

        x = self._nonbasic_values(vstat, lower, upper)
        x[basis] = basic_val
        primal = x[:n]
        reduced = None
        if status == OPTIMAL:
            # The stall's pricing, a phase-2 one on the final basis.
            sense_max = 1.0 if self.model.maximize else -1.0
            reduced = tuple((-sense_max * (self.cost - aty)[:n]).tolist())
        return LpSolution(
            status=status,
            objective=float(self._obj @ primal) if status != INFEASIBLE else math.nan,
            primal=tuple(primal.tolist()),
            reduced_costs=reduced,
            iterations=iterations,
            basis=vstat.tobytes(),
        )

    def _dual_phase(
        self, factor, basis, vstat, dirn, basic_val, lb_b, ub_b, lower, upper,
        free_cols, max_iterations, deadline,
    ):
        """Bounded dual simplex from a warm basis, while it is dual feasible.

        Updates ``basis``, ``vstat``, ``dirn``, ``lb_b`` and ``ub_b`` in
        place and returns ``(status, factor, basic_val, iterations)``.  A
        status of None hands the basis to the primal loop: the basis is
        primal feasible, or it was never dual feasible, or the dual steps
        stalled, or a row's violation did not survive recomputation, or
        rounding wiped out a pivot.
        """
        neg_d = self._start_neg_d(factor, basis)
        free_nb = free_cols[vstat[free_cols] != BASIC]
        if np.max(dirn * neg_d, initial=0.0) > self.opt_tol or (
            np.max(np.abs(neg_d[free_nb]), initial=0.0) > self.opt_tol
        ):
            return None, factor, basic_val, 0
        neg_d = neg_d.copy()
        iterations = 0
        degen_streak = 0
        while True:
            below = lb_b - basic_val
            above = basic_val - ub_b
            viol = np.maximum(below, above)
            r = int(np.argmax(viol))
            if not viol[r] > self.feas_tol:
                return None, factor, basic_val, iterations
            if iterations >= max_iterations or (
                deadline is not None and time.perf_counter() >= deadline
            ):
                return ITERATION_LIMIT, factor, basic_val, iterations

            # Row r leaves for the bound it violates.  With s = +1 (below
            # its lower bound) d moves by +t s alpha_r, so the eligible
            # columns are those whose d moves toward the wrong sign.
            s = 1.0 if below[r] > 0.0 else -1.0
            unit = np.zeros(self.m)
            unit[r] = 1.0
            rho = factor.btran(unit)
            alpha = self._aug_t @ rho
            eligible = dirn * (s * alpha) < -_PIVOT_TOL
            if free_cols.size:
                free_nb = free_cols[vstat[free_cols] != BASIC]
                eligible[free_nb] = np.abs(alpha[free_nb]) > _PIVOT_TOL
            cand = np.flatnonzero(eligible)
            if not cand.size:
                # No column can repair row r: it is infeasible unless its
                # violation, recomputed from the rows, is within tolerance.
                xn = self._nonbasic_values(vstat, lower, upper)
                xn[basis] = 0.0
                x_r = float(rho @ (self.rhs - self._aug @ xn))
                if max(lb_b[r] - x_r, x_r - ub_b[r]) > self.feas_tol:
                    return INFEASIBLE, factor, basic_val, iterations
                return None, factor, basic_val, iterations

            # Smallest |d_j / alpha_rj|; ties to the largest |alpha_rj|,
            # then to the lowest index.
            a_c = alpha[cand]
            ratios = np.abs(neg_d[cand] / a_c)
            mags = np.abs(a_c)
            tie = ratios <= ratios.min() + _TIE_TOL
            k = int(np.argmax(tie & (mags >= mags[tie].max() - _TIE_TOL)))
            q = int(cand[k])
            t = float(ratios[k])

            w = factor.ftran(self._column(q))
            if not abs(w[r]) > _PIVOT_TOL:
                # w_r is alpha_rq again, from the column side; rounding
                # that wipes it out goes to the primal loop.
                return None, factor, basic_val, iterations
            leaving = int(basis[r])
            if vstat[q] == AT_UPPER:
                enter_from = upper[q]
            else:
                enter_from = lower[q] if np.isfinite(lower[q]) else 0.0
            step = (basic_val[r] - (lb_b[r] if s > 0 else ub_b[r])) / w[r]
            idx = np.flatnonzero(w)
            basic_val[idx] -= step * w[idx]
            basic_val[r] = enter_from + step
            neg_d -= (t * s) * alpha
            neg_d[q] = 0.0

            vstat[leaving] = AT_LOWER if s > 0 else AT_UPPER
            movable = upper[leaving] > lower[leaving]
            dirn[leaving] = s if movable else 0.0
            vstat[q] = BASIC
            dirn[q] = 0.0
            basis[r] = q
            lb_b[r] = lower[q]
            ub_b[r] = upper[q]
            factor.update(r, w)
            iterations += 1

            if len(factor.etas) >= _REFACTOR_EVERY:
                factor = self._factorize(basis)
                basic_val = self._recompute_basics(factor, basis, vstat, lower, upper)
                neg_d = self._aug_t @ factor.btran(self.cost[basis]) - self.cost
            # Dual degenerate steps leave the dual objective where it was;
            # a run of them goes to the primal loop and its anti-cycling.
            degen_streak = degen_streak + 1 if t <= _TIE_TOL else 0
            if degen_streak >= BLAND_AFTER:
                return None, factor, basic_val, iterations
