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
in floating point; columns' reduced costs need no mapping back.  A row
whose factor or scaled right-hand side would overflow is left unscaled.

The basis is factorized through generalized upper bounding (Dantzig &
Van Slyke, "Generalized upper bounding techniques", JCSS 1967).  The
GUB rows are the model's equality rows when there are at least two and
their supports are pairwise disjoint: on the models ``build_model``
makes, the convexity rows.  Each GUB row gets one key basic column, and
only the Schur complement on the other (linking) rows takes a dense LU:
7x7 for a 43-row tree model.  Any other model, such as a Lagrangian
master (only <= rows), has no GUB rows, and the LU covers the whole
basis.  Between refactorizations the factor is updated with
product-form eta vectors.  When pricing stalls, two residuals decide
whether the etas can be trusted:
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
pivots are the ones the plain dense formulation takes.

The fixed cost of a solve matters as much at tree nodes, whose LPs
take a few pivots each on a small basis.  The engine keeps the factor
of the last nonsingular starting basis, so a sibling node starting from
the same parent basis skips the factorization.  Pricing is skipped when
none of its inputs changed since the last pricing (a bound flip changes
none of them in phase 2), and an optimal solution's reduced costs are
its final stall's phase-2 pricing.  Each of these reuses returns the very numbers
a recomputation would; the d a dual phase hands over (below) is updated
instead.

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
is updated from alpha_r.  Both loops pivot through one routine: it moves
the basic values by a signed step theta along the entering column w,
gives the entering column its nonbasic value plus theta, updates the
statuses, pricing directions and basic bounds, appends the eta, and
refactorizes after ``_REFACTOR_EVERY`` etas.  The start basis's d
depends on the basis alone, so it is kept with its factor for the
siblings.  The dual phase hands the basis to the primal loop when it is
primal feasible, when it was not dual feasible to begin with, after
``BLAND_AFTER`` consecutive degenerate dual steps, or when no column can
repair a row whose violation, recomputed from the rows as
``rho_r (rhs - A_N x_N)``, is within ``feas_tol``; past ``feas_tol`` that
row proves the LP infeasible.  The primal loop takes the handed-over d as
its phase-2 pricing, so a dual phase that ends primal feasible goes
straight to the stall checks, and every optimum passes the same residual
checks and refinement.  Each dual step also compares its pivot as the
row gives it, alpha_rq, with the column's w_r; when the two differ by
more than 1e-9 relative (rounding alone leaves about 1e-14), the factor
has drifted, and the primal loop prices afresh instead.

A cold solve starts from a crash basis (Bixby, "Implementing the simplex
method: the initial basis", ORSA J. Computing 1992) built from the GUB
rows.  With the linking rows' duals u at 0, the LP splits into one
multiple-choice problem per GUB row (Sinha & Zoltners, "The
multiple-choice knapsack problem", Oper. Res. 1979), whose best column
is the one with the lowest cost per unit of its GUB entry.  So each GUB
row takes as its basic column the Lagrangian's best column at u (u = 0
when no estimate runs; see below): among the movable columns with a
positive entry, the lowest priced per unit, ties to the lowest index.
The row's logical, fixed at [0, 0], leaves at its bound, and every other
row keeps its logical basic.  On a model ``build_model`` makes, the u = 0
basis is dual feasible, so the cold root LP runs dual steps; the primal
loop from the all-logical basis spent most of its pivots finding each
campaign's level.  The crash uses the solve's own bounds, and it
goes through the dual phase like a warm start, which runs only if the
basis passes its dual-feasibility check.  A model with fewer than two
GUB rows has no crash: its cold start is the all-logical basis, and a
singular crash falls back to that basis.  Every start, warm, crash or
all-logical, takes its factor from the engine's start memo and goes
through the same check.

A model with many GUB rows per linking row (at least ``_GUB_PER_LINK``;
the acceptance scale models have over a hundred, the tree and suite
models fewer than six) first estimates u for the crash.  The estimate
minimizes the Lagrangian dual function L(u) of the linking rows, whose
every evaluation picks each GUB row's best column at u in one pass over
the columns, by cutting planes (Kelley, "The cutting-plane method for
solving convex programs", J. SIAM 1960) kept in a box around the best u
so far, the box doubling on each step that lowers L enough (Marsten,
Hogan & Blankenship, "The boxstep method for large-scale optimization",
Oper. Res. 1975; du Merle, Villeneuve, Desrosiers & Hansen, "Stabilized
column generation", Discrete Math. 1999).  Each round's master LP, one
row per cut, is solved by a nested engine warm from the last round's
basis.  The linking logicals stay basic, so y_L = 0 and the crash is in
general not dual feasible: the primal loop solves from it.  An estimate
that fails (L not finite, a master that does not end optimal, or no
convergence within ``_ESTIMATE_ROUNDS`` rounds, as when the linking rows
cannot be met) leaves the crash at u = 0.  Where L bounds the LP, linking
rows that cannot be met end it sooner, once L falls below the lowest
objective that any x meeting the GUB rows reaches.

Every model maximizes its objective; the engine minimizes its negation.
The reported objective and reduced costs are the model's own, so at
optimality a column sitting at its lower bound has reduced cost
<= +opt_tol and one at its upper bound has reduced cost >= -opt_tol.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

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
_AGREE_TOL = 1e-9  # relative; rounding alone leaves about 1e-14
_REFACTOR_EVERY = 64

# A cold start estimates the linking rows' duals first when the model has
# at least this many GUB rows per linking row; see the module docstring.
_GUB_PER_LINK = 32
_ESTIMATE_GAP = 1e-3  # relative
_ESTIMATE_ROUNDS = 200


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Result of one solve.

    ``basis`` is an opaque ``bytes`` token: the warm start accepted by
    ``SimplexEngine.solve``, with no other meaning for callers.
    ``primal`` and ``reduced_costs`` are read-only arrays, the latter
    for ``OPTIMAL`` solves only, else None.
    They are the final basis's last pricing: the primal loop's own, or,
    when the dual phase ended primal feasible with its pivots' row and
    column entries in agreement and the primal loop took no step, the
    dual phase's d, updated from each pivot row.
    ``iterations`` counts this LP's own pivots and bound flips; the
    pivots of a cold start's Lagrangian estimate are not among them.
    Solutions compare by identity.
    """

    status: str
    objective: float
    primal: np.ndarray
    reduced_costs: np.ndarray | None
    iterations: int
    basis: bytes | None = None


class _Blocks(NamedTuple):
    """The augmented matrix split once per engine for ``_Factor``.

    GUB rows (generalized upper bounding; Dantzig & Van Slyke, JCSS
    1967) are equality rows with pairwise disjoint nonzero supports, so
    every column has at most one nonzero entry among them; the other rows
    are linking rows.
    """

    gub_rows: np.ndarray  # the row of each GUB slot, ascending
    perm: np.ndarray  # the GUB rows, then the linking rows, ascending
    unperm: np.ndarray  # the inverse permutation of perm
    slot: np.ndarray  # per column: the GUB slot of its GUB entry, or -1
    gval: np.ndarray  # per column: that entry, 0.0 where there is none
    # per column: its nonzero entries in linking rows, numbered 0..l-1
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _gub_blocks(aug: scipy.sparse.csc_matrix, equality: np.ndarray) -> _Blocks:
    """Split the columns of ``aug`` by row kind.  The GUB rows are the
    rows flagged in ``equality`` when there are at least two and their
    supports are pairwise disjoint, and otherwise there are none: a lone
    GUB row would save one row of the LU at the price of a pivot chosen
    without looking at the other rows.  Stored zeros are not entries."""
    m, ncols = aug.shape
    nz = aug.data != 0.0
    rows = aug.indices[nz]
    cols = np.arange(ncols).repeat(np.diff(aug.indptr))[nz]
    data = aug.data[nz]
    disjoint = np.bincount(cols[equality[rows]], minlength=ncols).max(initial=0) <= 1
    is_gub = equality & (disjoint and np.count_nonzero(equality) >= 2)
    gub_rows = is_gub.nonzero()[0]
    link_rows = (~is_gub).nonzero()[0]
    perm = np.concatenate((gub_rows, link_rows))
    unperm = np.empty(m, np.intp)
    unperm[perm] = np.arange(m)
    number = unperm - np.where(is_gub, 0, gub_rows.size)  # slot or linking row
    in_gub = is_gub[rows]
    slot = np.full(ncols, -1, np.intp)
    slot[cols[in_gub]] = number[rows[in_gub]]
    gval = np.zeros(ncols)
    gval[cols[in_gub]] = data[in_gub]
    link = ~in_gub
    indptr = np.zeros(ncols + 1, np.intp)
    np.cumsum(np.bincount(cols[link], minlength=ncols), out=indptr[1:])
    return _Blocks(
        gub_rows, perm, unperm, slot, gval, indptr, number[rows[link]], data[link]
    )


class _Factor:
    """The basis factorized through its GUB structure, plus product-form
    eta updates.

    Every basic column has at most one entry in the GUB rows.  Each GUB
    row gets a key: the basic column with the largest |entry| in that
    row, ties to the lowest basis position.  With the keys and the GUB
    rows first, the basis is ``[[D, E], [F, H]]``, D the diagonal of the
    key entries and each column of E holding one entry at most.  Only
    the Schur complement ``W = H - F D^-1 E``, linking rows by linking
    rows, takes an LU, with LAPACK's ``getrf``; ``G = F D^-1`` is kept
    dense.  A model without GUB rows has W equal to the whole basis.

    Each eta keeps only the nonzeros of its column, so applying it costs
    work in proportion to them rather than to the basis size.

    Raises RuntimeError on a singular or near-singular basis: a GUB row
    with no basic column, or a pivot of D or W at or below 1e-12 times
    the largest (or 1).
    """

    def __init__(self, blocks: _Blocks, basis: np.ndarray):
        m = basis.size
        g = blocks.gub_rows.size
        slot = blocks.slot[basis]
        gval = blocks.gval[basis]
        ranked = np.lexsort((-np.abs(gval), slot))
        ranked_slot = slot[ranked]
        lead = ranked_slot >= 0
        lead[1:] &= ranked_slot[1:] != ranked_slot[:-1]
        key = ranked[lead]
        if key.size != g:
            raise RuntimeError("singular basis")
        d = gval[key]
        is_key = np.zeros(m, bool)
        is_key[key] = True
        nonkey = (~is_key).nonzero()[0]
        order = np.concatenate((key, nonkey))
        unorder = np.empty(m, np.intp)
        unorder[order] = np.arange(m)
        # the basis's linking rows, dense and transposed: one row per column
        starts = blocks.indptr[basis]
        counts = blocks.indptr[basis + 1] - starts
        ends = counts.cumsum()
        take = (starts - ends + counts).repeat(counts) + np.arange(counts.sum())
        link_t = np.zeros((m, m - g))
        link_t[np.arange(m).repeat(counts), blocks.indices[take]] = blocks.data[take]
        dinv = 1.0 / d
        gmat = (link_t[key] * dinv[:, None]).T  # G = F D^-1
        w = link_t[nonkey].T  # H, in Fortran order
        e_cols = (slot[nonkey] >= 0).nonzero()[0]
        e_slot = slot[nonkey[e_cols]]
        e_val = gval[nonkey[e_cols]]
        w[:, e_cols] -= gmat[:, e_slot] * e_val
        lu = piv = None
        pivots = d
        if m > g:
            lu, piv, _ = _getrf(w, overwrite_a=True)
            pivots = np.concatenate((d, lu.diagonal()))
        pivots = np.abs(pivots)
        if pivots.size and pivots.min() <= 1e-12 * max(1.0, pivots.max()):
            raise RuntimeError("singular basis")
        self._blocks = blocks
        self._order = order
        self._unorder = unorder
        self._dinv = dinv
        self._gmat = gmat
        self._e = (e_cols, e_slot, e_val, e_val * dinv[e_slot])
        self._lu = (lu, piv)
        # (pivot position, nonzero positions, their values, pivot value)
        self.etas: list[tuple[int, np.ndarray, np.ndarray, float]] = []

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """x with B x = b, x in basis positions."""
        e_cols, e_slot, _, e_scaled = self._e
        g = self._dinv.size
        x = b[self._blocks.perm]
        x_k = x[:g]
        x[g:] -= self._gmat.dot(x_k)
        lu, piv = self._lu
        if lu is not None:
            x[g:] = _getrs(lu, piv, x[g:])[0]
        x_k *= self._dinv
        x_k -= np.bincount(e_slot, e_scaled * x[g:][e_cols], minlength=g)
        return x[self._unorder]

    def _solve_t(self, c: np.ndarray) -> np.ndarray:
        """y with B^T y = c, c in basis positions."""
        e_cols, e_slot, e_val, _ = self._e
        g = self._dinv.size
        y = c[self._order]
        y_g = y[:g]
        y_g *= self._dinv
        y[g:][e_cols] -= e_val * y_g[e_slot]
        lu, piv = self._lu
        if lu is not None:
            y[g:] = _getrs(lu, piv, y[g:], trans=1)[0]
        y_g -= y[g:].dot(self._gmat)
        return y[self._blocks.unperm]

    def ftran(self, b: np.ndarray) -> np.ndarray:
        x = self._solve(b)
        for p, idx, vals, dp in self.etas:
            xp = x.item(p)
            if xp == 0.0:
                continue  # the eta would only flip the sign of zeros
            xp /= dp
            x[idx] -= vals * xp
            x[p] = xp
        return x

    def btran(self, c: np.ndarray) -> np.ndarray:
        if self.etas:
            c = c.copy()
            for p, idx, vals, dp in reversed(self.etas):
                cp = c.item(p)
                c[p] = (cp - (vals.dot(c.take(idx)) - dp * cp)) / dp
        return self._solve_t(c)

    def update(self, pos: int, w: np.ndarray, idx: np.ndarray) -> None:
        """Append the eta of column ``w`` entering at ``pos``; ``idx`` holds
        the positions of the nonzeros of ``w``."""
        self.etas.append((pos, idx, w[idx], float(w[pos])))

    def fresh(self) -> _Factor:
        """The same factorization without etas: the basis it factorized, anew."""
        twin = object.__new__(_Factor)
        twin.__dict__.update(self.__dict__, etas=[])
        return twin


class _SolveState:
    """What the dual phase and the primal loop of one solve share.
    ``basis``, ``vstat``, ``dirn``, ``lb_b`` and ``ub_b`` change in place;
    each refactorization replaces ``factor`` and ``basic_val``."""

    def __init__(self, engine, lower, upper, vstat, basis, factor, max_iterations, deadline):
        self.engine = engine
        self.lower, self.upper = lower, upper
        self.vstat, self.basis = vstat, basis
        self.iterations = 0
        self.max_iterations, self.deadline = max_iterations, deadline
        self.free_var = ~np.isfinite(lower) & ~np.isfinite(upper)
        self.free_cols = np.flatnonzero(self.free_var)
        # Pricing direction: +1 at lower, -1 at upper, 0 when basic, fixed
        # or free (free columns are priced by |d|).  Only the entering and
        # the leaving variable change it.
        self.dirn = np.where(vstat == AT_LOWER, 1.0, -1.0)
        self.dirn[(vstat == BASIC) | ~(upper > lower) | self.free_var] = 0.0
        self.lb_b, self.ub_b = lower[basis], upper[basis]
        self.refactor(factor)

    def refactor(self, factor: _Factor | None = None) -> None:
        """Take ``factor``, else a fresh factorization, and recompute the basic values."""
        self.factor = self.engine._factorize(self.basis) if factor is None else factor
        self.basic_val = self.engine._recompute_basics(
            self.factor, self.basis, self.vstat, self.lower, self.upper
        )

    def limit_reached(self) -> bool:
        """Whether the iteration limit or the deadline is reached."""
        return self.iterations >= self.max_iterations or (
            self.deadline is not None and time.perf_counter() >= self.deadline
        )

    def pivot(self, j: int, pos: int, theta: float, w, idx, side: int) -> bool:
        """Column j enters at basis position ``pos``, and the column there
        leaves for its bound ``side``.  ``w = B^-1 a_j`` has its nonzeros at
        ``idx``; the basic values move by ``-theta w``, and j takes its
        nonbasic value plus theta.  True when the basis was refactorized."""
        lower, upper, vstat, dirn = self.lower, self.upper, self.vstat, self.dirn
        if vstat[j] == AT_UPPER:
            enter_from = upper[j]
        else:
            enter_from = lower[j] if np.isfinite(lower[j]) else 0.0
        leaving = int(self.basis[pos])
        self.basic_val[idx] -= theta * w[idx]
        self.basic_val[pos] = enter_from + theta
        vstat[leaving] = side
        vstat[j] = BASIC
        movable = upper[leaving] > lower[leaving]
        dirn[leaving] = (1.0 if side == AT_LOWER else -1.0) if movable else 0.0
        dirn[j] = 0.0
        self.basis[pos] = j
        self.lb_b[pos] = lower[j]
        self.ub_b[pos] = upper[j]
        self.factor.update(pos, w, idx)
        if len(self.factor.etas) < _REFACTOR_EVERY:
            return False
        self.refactor()
        return True


class SimplexEngine:
    """Reusable solver context for one LpModel.

    Construction reads the model's arrays once into the row-scaled
    ``[A I]``, in CSC and CSR; ``solve`` may then be called many times
    with different bound overrides and warm starts (the branch-and-bound
    driver does exactly that).  A context must not be shared between
    threads during a solve.
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

        n = model.objective.size
        m = model.rhs.size
        self.n = n
        self.m = m

        cols = model.indices
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("row coefficient for a column that does not exist")
        rows = np.arange(m).repeat(np.diff(model.indptr))
        biggest = np.zeros(m)
        np.maximum.at(biggest, rows, np.abs(model.data))
        # Each row's factor is the power of two that brings its largest
        # entry nearest 1; it is 1 where the row has no entry, or where
        # that power or the scaled right-hand side would not be finite.
        exps = [-round(math.log2(v)) if v > 0.0 else 0 for v in biggest.tolist()]
        scale = np.array([
            2.0 ** e if e < 1024 and abs(r) * 2.0 ** e < math.inf else 1.0
            for e, r in zip(exps, model.rhs.tolist())
        ])
        vals = model.data * scale[rows]

        # [A I] in CSC, rows ascending in each column, repeats summed
        order = np.lexsort((rows, cols))
        cols, rows, vals = cols[order], rows[order], vals[order]
        repeat = (cols[1:] == cols[:-1]) & (rows[1:] == rows[:-1])
        if repeat.any():
            first = np.flatnonzero(np.concatenate(([True], ~repeat)))
            cols, rows, vals = cols[first], rows[first], np.add.reduceat(vals, first)
        indptr = np.empty(n + m + 1, np.intp)
        indptr[0] = 0
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1 : n + 1])
        indptr[n + 1 :] = indptr[n] + np.arange(1, m + 1)
        indices = np.concatenate((rows, np.arange(m)))
        data = np.concatenate((vals, np.ones(m)))
        self._aug = scipy.sparse.csc_matrix((data, indices, indptr), shape=(m, n + m))
        self._aug_t = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n + m, m))
        self.rhs = model.rhs * scale

        self._obj = model.objective
        self.cost = np.zeros(n + m)
        self.cost[:n] = -self._obj

        self.base_lower = np.zeros(n + m)
        self.base_upper = np.zeros(n + m)
        self.base_lower[:n] = model.lower
        self.base_upper[:n] = model.upper
        self.base_upper[n:] = [math.inf if s == "L" else 0.0 for s in model.senses]
        self._blocks = _gub_blocks(self._aug, self.base_upper[n:] == 0.0)

        # The basic columns of the last nonsingular start, as bytes, their
        # factor and, once a dual phase asked for them, their -d (None
        # until then).  Siblings in a tree start from the same parent
        # basis; keyed on the columns alone, the memo also serves a start
        # whose nonbasic statuses differ.  A singular start is not kept:
        # each try of it costs one failed factorization.
        self._start: tuple[bytes | None, _Factor | None, np.ndarray | None] = (None, None, None)

    # -- helpers -------------------------------------------------------

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        lo, hi = self._aug.indptr[j], self._aug.indptr[j + 1]
        col[self._aug.indices[lo:hi]] = self._aug.data[lo:hi]
        return col

    def _nonbasic_values(self, vstat, lower, upper) -> np.ndarray:
        """Each nonbasic column at its bound (0 where that is infinite), each basic one at 0."""
        x = np.where(vstat == AT_LOWER, lower, np.where(vstat == AT_UPPER, upper, 0.0))
        return np.where(np.isfinite(x), x, 0.0)

    def _cold_vstat(self, lower, upper) -> np.ndarray:
        """The all-logical basis."""
        vstat = np.full(self.n + self.m, AT_LOWER, dtype=np.int8)
        vstat[~np.isfinite(lower) & np.isfinite(upper)] = AT_UPPER
        vstat[self.n:] = BASIC
        return vstat

    def _best_columns(self, lower, upper):
        """``best(p)``: each GUB row's best column at prices p, in slot order.
        Of the row's movable columns with a positive entry it has the lowest
        ``p_j / gval_j``, ties to the lowest index; rows without one have none."""
        blocks = self._blocks
        cand = np.flatnonzero((blocks.gval > 0.0) & (upper > lower))
        cand = cand[np.argsort(blocks.slot[cand], kind="stable")]
        starts = np.flatnonzero(np.diff(blocks.slot[cand], prepend=-1))
        sizes = np.diff(starts, append=cand.size)
        gval = blocks.gval[cand]

        def best(price):
            unit = price[cand] / gval
            hit = np.flatnonzero(unit == np.minimum.reduceat(unit, starts).repeat(sizes))
            return cand[hit[np.searchsorted(hit, starts)]]

        return best

    def _crash_vstat(self, lower, upper, u=None) -> np.ndarray:
        """The all-logical basis, except that each GUB row takes its best
        column (``_best_columns``) as its basic column, and the row's
        logical leaves at its bound.  The prices are the costs, or, with
        linking-row multipliers ``u``, ``cost + A_L^T u``: the Lagrangian's
        choice at u."""
        vstat = self._cold_vstat(lower, upper)
        best = self._best_columns(lower, upper)(self.cost if u is None else self._priced(u))
        vstat[best] = BASIC
        vstat[self.n + self._blocks.gub_rows[self._blocks.slot[best]]] = AT_LOWER
        return vstat

    def _priced(self, u: np.ndarray) -> np.ndarray:
        """``cost + A_L^T u``: the costs with the linking rows priced at u."""
        y = np.zeros(self.m)
        y[self._blocks.perm[self._blocks.gub_rows.size:]] = u
        return self.cost + self._aug_t @ y

    def _lagrangian(self, lower, upper):
        """The Lagrangian dual function of the linking rows under the bounds
        ``lower`` and ``upper``, as ``evaluate(u) -> (L(u), subgradient)``,
        and its floor.

        In the maximization sense (profits c = -cost), with multipliers u
        on the linking rows, ``L(u) = u^T b_L + max (c - A_L^T u)^T x``
        over the GUB rows and the column bounds.  Each GUB row g gives
        ``rhs_g`` to its best column at the prices ``cost + A_L^T u``
        (``_best_columns``), and every column outside the GUB rows sits at
        the bound its profit favours.  Fixed columns in GUB rows are skipped,
        as in the crash, and so are the GUB columns' upper bounds.  When
        every lower bound is 0 and every GUB entry and right-hand side is
        nonnegative, L(u) is at least ``max c^T x`` for every u >= 0.  The
        subgradient is ``b_L - A_L x(u)``.  L is +inf when a column outside
        the GUB rows has an infinite bound on its favoured side.

        Under those same conditions the floor is the lowest ``c^T x`` of
        any x that meets the GUB rows and the bounds, the same pass at
        the prices ``-cost``: an L(u) below it proves that no x meets the
        linking rows.  Otherwise the floor is -inf.
        """
        blocks = self._blocks
        link = blocks.perm[blocks.gub_rows.size:]
        b_link = self.rhs[link]
        best = self._best_columns(lower, upper)
        out = np.flatnonzero(blocks.slot < 0)
        out_lo, out_up = lower[out], upper[out]
        out_zero = np.clip(0.0, out_lo, out_up)

        def argmax(price):
            """The x that maximizes ``-price^T x`` as L does."""
            x = np.zeros(self.n + self.m)
            p = price[out]
            x[out] = np.where(p < 0.0, out_up, np.where(p > 0.0, out_lo, out_zero))
            cols = best(price)
            x[cols] = self.rhs[blocks.gub_rows[blocks.slot[cols]]] / blocks.gval[cols]
            return x

        def evaluate(u):
            price = self._priced(u)
            x = argmax(price)
            value = float(u @ b_link - price @ x)
            return value, b_link - (self._aug @ x)[link]

        floor = -math.inf
        if (
            not lower.any()
            and (blocks.gval >= 0.0).all()
            and (self.rhs[blocks.gub_rows] >= 0.0).all()
        ):
            floor = float(-self.cost @ argmax(-self.cost))
        return evaluate, floor

    def _estimate_duals(self, lower, upper, deadline) -> np.ndarray | None:
        """Multipliers u of the linking rows that nearly minimize L(u), or
        None when the estimate fails.

        A box-step cutting-plane method: each round minimizes the model
        ``max_k L(u_k) + g_k^T (u - u_k)`` of the cuts so far inside a box
        around the centre, evaluates L at the minimizer and adds its cut.
        The minimizer becomes the centre, and the box doubles, when L
        there falls by at least a tenth of the model's predicted fall (the
        gap).  The estimate ends with the centre once the gap is within
        ``_ESTIMATE_GAP`` of L at the centre and no box bound is active at
        the minimizer: only then is the model's minimum in the box its
        minimum over all u.  It fails when L is not finite, a master solve
        does not end ``OPTIMAL`` or raises, or ``_ESTIMATE_ROUNDS`` rounds
        pass: an unbounded dual, from linking rows the GUB rows cannot
        meet, moves the centre without end.  Where L bounds the LP, such
        a dual is caught sooner: the estimate fails once L at the centre
        is below ``_lagrangian``'s floor by more than ``_ESTIMATE_GAP``
        (relative), which no LP with a feasible point allows.

        The master is an LP in the step v = u - centre and the model's
        excess t over L at the centre: maximize -t subject to one row
        ``g_k^T v - t <= L(centre) - L(u_k) - g_k^T (centre - u_k)`` per cut,
        with v in the box and u >= 0: every linking row is a <= row.
        Its matrix is the dense block of the cuts' subgradients beside a
        column of -1s for t.  It is solved by a nested engine, warm from
        the last master's optimal basis plus the new row's logical: that
        basis stays dual feasible, and the new cut cuts off its minimizer,
        so the dual phase re-solves it.
        """
        evaluate, floor = self._lagrangian(lower, upper)
        l = self.m - self._blocks.gub_rows.size
        u = centre = np.zeros(l)
        value, grad = evaluate(u)
        top = value
        grads, intercepts, cut_names = [], [], []
        column_names = tuple(f"v{i}" for i in range(l)) + ("t",)
        objective = -np.append(np.zeros(l), 1.0)
        box = 1.0
        token = None
        for k in range(_ESTIMATE_ROUNDS):
            if not math.isfinite(value):
                return None
            # the cut t >= L(u) + g^T (. - u) of the last evaluation
            grads.append(grad)
            intercepts.append(value - grad @ u)
            cut_names.append(f"cut{k}")
            cuts = np.array(grads)
            excess = top - np.array(intercepts) - cuts @ centre
            # 0.0 - centre, not -centre, whose -0.0 bounds change the masters' solutions
            low = np.maximum(0.0 - centre, -box)
            master = LpModel(
                column_names, objective,
                np.append(low, -math.inf), np.append(np.full(l, box), math.inf),
                tuple(cut_names), "L" * (k + 1), excess,
                np.arange(0, (k + 2) * (l + 1), l + 1), np.tile(np.arange(l + 1), k + 1),
                np.column_stack((cuts, np.full(k + 1, -1.0))).ravel(),
            )
            try:
                engine = SimplexEngine(master, self.feas_tol, self.opt_tol)
                sol = engine.solve(warm=token, deadline=deadline)
            except RuntimeError:
                return None
            if sol.status != OPTIMAL:
                return None
            token = sol.basis + bytes([BASIC])
            step = sol.primal[:l]
            gap = sol.objective
            if gap <= _ESTIMATE_GAP * max(1.0, abs(top)):
                if not np.any(np.abs(step) >= box * (1.0 - 1e-9)):
                    return centre
                box *= 2.0  # the model may fall further outside the box
            u = centre + step
            value, grad = evaluate(u)
            if value <= top - 0.1 * gap:
                centre, top = u, value
                box *= 2.0
                if top < floor - _ESTIMATE_GAP * max(1.0, abs(floor)):
                    return None  # below every GUB-feasible objective
        return None

    def _factorize(self, basis: np.ndarray) -> _Factor:
        return _Factor(self._blocks, basis)

    def _start_factor(self, basis: np.ndarray) -> _Factor | None:
        """A factor of the starting basis, or None when it is singular."""
        key = basis.tobytes()
        if key != self._start[0]:
            try:
                factor = self._factorize(basis)
            except RuntimeError:
                return None
            self._start = (key, factor, None)
        return self._start[1].fresh()

    def _neg_d(self, factor, basis, cost=None) -> np.ndarray:
        """The -d of a basis under ``cost``, as ``A^T y - c``: exactly
        ``-(c - A^T y)``.  The default is the phase-2 cost; phase 1 passes
        -1 or +1 on each basic column below or above its bounds, else 0."""
        cost = self.cost if cost is None else cost
        return self._aug_t @ factor.btran(cost[basis]) - cost

    def _recompute_basics(self, factor, basis, vstat, lower, upper) -> np.ndarray:
        return factor.ftran(self.rhs - self._aug @ self._nonbasic_values(vstat, lower, upper))

    # -- main ----------------------------------------------------------

    def solve(
        self,
        bounds: dict | None = None,
        warm: bytes | None = None,
        max_iterations: int | None = None,
        deadline: float | None = None,
    ) -> LpSolution:
        """Solve the LP relaxation (SOS sets ignored).

        ``bounds`` maps column positions to (lower, upper) overrides
        applied on top of the model bounds; fixing a column means
        lower == upper.  ``warm`` is the ``basis`` of an earlier
        solution of this engine; a token of the wrong length, with a
        basic count other than the number of rows, or with a singular
        basis falls back to the cold start: the crash basis
        under ``bounds``, or, when that is singular, the all-logical
        basis.  Whichever basis starts the solve, it is re-solved with
        dual simplex steps first when it is dual feasible under
        ``bounds``.  On a model
        with at least ``_GUB_PER_LINK`` GUB rows per linking row the crash
        takes the Lagrangian estimate of the linking rows' duals under
        ``bounds``, or u = 0 when the estimate fails.  The solve returns
        ``ITERATION_LIMIT`` after ``max_iterations`` iterations or once
        ``time.perf_counter()`` reaches ``deadline``, checked once per
        iteration.  The estimate's master solves check the deadline too;
        their pivots count toward neither ``max_iterations`` nor the
        solution's ``iterations``.
        """
        n, m = self.n, self.m
        lower = self.base_lower.copy()
        upper = self.base_upper.copy()
        if bounds:
            for j, (lo, hi) in bounds.items():
                if lo > hi:
                    raise ValueError(f"bounds for column {j}: lower > upper")
                lower[j] = lo
                upper[j] = hi

        factor = None
        if warm is not None and len(warm) == n + m:
            vstat = np.frombuffer(warm, np.int8).copy()
            if int(np.count_nonzero(vstat == BASIC)) == m:
                # Nonbasic statuses must still make sense under the new bounds.
                snap_lo = (vstat == AT_UPPER) & ~np.isfinite(upper)
                vstat[snap_lo] = AT_LOWER
                snap_up = (vstat == AT_LOWER) & ~np.isfinite(lower) & np.isfinite(upper)
                vstat[snap_up] = AT_UPPER
                basis = np.flatnonzero(vstat == BASIC)
                factor = self._start_factor(basis)
        if factor is None:
            links = m - self._blocks.gub_rows.size
            u = None
            if 0 < links and m - links >= _GUB_PER_LINK * links:
                u = self._estimate_duals(lower, upper, deadline)
            vstat = self._crash_vstat(lower, upper, u)
            basis = np.flatnonzero(vstat == BASIC)
            factor = self._start_factor(basis)
        if factor is None:
            vstat = self._cold_vstat(lower, upper)
            basis = np.flatnonzero(vstat == BASIC)
            factor = self._start_factor(basis)

        if max_iterations is None:
            max_iterations = 100 * (n + m) + 10_000
        st = _SolveState(self, lower, upper, vstat, basis, factor, max_iterations, deadline)
        dirn, lb_b, ub_b, free_var = st.dirn, st.lb_b, st.ub_b, st.free_var
        priced = None  # the factor, eta count and masks of the last pricing
        status, neg_d = self._dual_phase(st)
        if neg_d is not None:
            # The phase-2 pricing of the basis the dual phase hands over:
            # the primal loop takes it as its own in phase 2.
            priced = (st.factor, len(st.factor.etas), bytes(m), bytes(m))
        degen_streak = 0
        bland = False
        stall_x = None  # the final stall's nonbasic values

        while status is None:
            if st.limit_reached():
                status = ITERATION_LIMIT
                break
            factor, basic_val = st.factor, st.basic_val

            viol_low = basic_val < lb_b - self.feas_tol
            viol_high = basic_val > ub_b + self.feas_tol
            in_phase1 = bool(viol_low.any() or viol_high.any())

            # neg_d = -d depends only on the factor, its etas and the masks;
            # when none changed, as after a bound flip in phase 2, it holds.
            key = (factor, len(factor.etas), viol_low.tobytes(), viol_high.tobytes())
            if key != priced:
                priced = key
                cost = None
                if in_phase1:
                    cost = np.zeros(n + m)
                    cost[basis[viol_low]] = -1.0
                    cost[basis[viol_high]] = 1.0
                neg_d = self._neg_d(factor, basis, cost)

            # score equals |d| on every eligible column, bit for bit, and
            # is <= opt_tol elsewhere: the same argmax and first eligible
            # index as masking the eligible columns.
            score = dirn * neg_d
            if st.free_cols.size:
                free_nb = st.free_cols[vstat[st.free_cols] != BASIC]
                score[free_nb] = np.abs(neg_d[free_nb])
            j = int(np.argmax(score > self.opt_tol if bland else score))
            if not score[j] > self.opt_tol:
                # The stall stands when x meets the rows (A x = rhs) and d
                # prices the basic columns at zero (B^T y = c_B).  When the
                # etas let either drift past its tolerance, recompute the
                # values from a fresh factorization and price again.
                x = self._nonbasic_values(vstat, lower, upper)
                x[basis] = basic_val
                resid = self.rhs - self._aug @ x
                if factor.etas and (
                    np.max(np.abs(resid), initial=0.0) > self.feas_tol
                    or np.max(np.abs(neg_d[basis]), initial=0.0) > self.opt_tol
                ):
                    st.refactor()
                    continue
                # One step of iterative refinement: an ftran, no
                # factorization.  x takes the refined basic values below.
                basic_val += factor.ftran(resid)
                if in_phase1 and not (
                    (basic_val < lb_b - self.feas_tol) | (basic_val > ub_b + self.feas_tol)
                ).any():
                    continue  # the refinement removed the violation: phase 2
                status = INFEASIBLE if in_phase1 else OPTIMAL
                stall_x = x
                break

            # +1 up from a lower bound, -1 down from an upper one
            sigma = (1.0 if neg_d[j] > 0 else -1.0) if free_var[j] else dirn[j]
            w = factor.ftran(self._column(j))
            # The ratio test runs over the nonzeros of w only: every other
            # basic variable keeps its value.
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
            v = basic_val[idx]
            # the branches np.where discards also divide, and may overflow
            with np.errstate(all="ignore"):
                ratios = np.where(
                    rate > _PIVOT_TOL,
                    (v - target_down) / rate,
                    np.where(rate < -_PIVOT_TOL, (target_up - v) / -rate, math.inf),
                )
            ratios[ratios < 0.0] = 0.0  # keeps -0.0 and NaN

            flip_range = upper[j] - lower[j]
            t_pivot = ratios.min(initial=math.inf)
            flip = flip_range <= t_pivot
            if not math.isfinite(flip_range if flip else t_pivot):
                if in_phase1:
                    raise RuntimeError("phase-1 direction unblocked; numerical failure")
                status = UNBOUNDED
                break
            if flip:
                basic_val[idx] -= flip_range * rate
                vstat[j] = AT_UPPER if vstat[j] == AT_LOWER else AT_LOWER
                dirn[j] = -dirn[j]
                step = flip_range
            else:
                cand = np.flatnonzero(ratios <= t_pivot + _TIE_TOL)
                if not bland:
                    mags = np.abs(rate[cand])
                    cand = cand[mags >= mags.max() - _TIE_TOL]
                k = int(cand[np.argmin(basis[idx[cand]])])
                pos = int(idx[k])
                step = float(ratios[k])
                if rate[k] > 0:
                    side = AT_UPPER if viol_high[pos] else AT_LOWER
                else:
                    side = AT_LOWER if viol_low[pos] else AT_UPPER
                st.pivot(j, pos, sigma * step, w, idx, side)

            degen_streak = degen_streak + 1 if step <= _TIE_TOL else 0
            bland = degen_streak >= BLAND_AFTER
            st.iterations += 1

        x = self._nonbasic_values(vstat, lower, upper) if stall_x is None else stall_x
        x[basis] = st.basic_val
        primal = x[:n]
        primal.flags.writeable = False
        reduced = None
        if status == OPTIMAL:
            # The stall's pricing, a phase-2 one on the final basis (a
            # copy: it may be the start's memoized -d).
            reduced = neg_d[:n].copy()
            reduced.flags.writeable = False
        return LpSolution(
            status=status,
            objective=float(self._obj @ primal) if status != INFEASIBLE else math.nan,
            primal=primal,
            reduced_costs=reduced,
            iterations=st.iterations,
            basis=vstat.tobytes(),
        )

    def _dual_phase(self, st: _SolveState) -> tuple[str | None, np.ndarray | None]:
        """Bounded dual simplex from the start basis, while it is dual
        feasible.

        Pivots ``st`` in place and returns ``(status, neg_d)``.  ``neg_d``
        is the -d of the final basis, the start's updated from each pivot
        row, or None when a pivot's entry from the row (btran) and from the
        column (ftran) disagreed since it was last computed afresh: then
        the factor has drifted, and the d is not to be believed.  A status of None hands
        the basis to the primal loop: the basis is primal feasible, or it
        was never dual feasible, or the dual steps stalled, or a row's
        violation did not survive recomputation, or rounding wiped out a
        pivot.
        """
        basis, vstat, dirn, lb_b, ub_b = st.basis, st.vstat, st.dirn, st.lb_b, st.ub_b
        free_cols = st.free_cols
        # the start's -d depends on its basis alone: it is kept with the factor
        key, start_factor, neg_d = self._start
        if neg_d is None:
            neg_d = self._neg_d(st.factor, basis)
            self._start = (key, start_factor, neg_d)
        free_nb = free_cols[vstat[free_cols] != BASIC]
        if np.max(dirn * neg_d, initial=0.0) > self.opt_tol or (
            np.max(np.abs(neg_d[free_nb]), initial=0.0) > self.opt_tol
        ):
            return None, neg_d
        if not self.m:  # no row to violate its bounds: the start is optimal
            return OPTIMAL, neg_d
        neg_d = neg_d.copy()
        agreed = True
        status = None
        degen_streak = 0
        while True:
            factor, basic_val = st.factor, st.basic_val
            below = lb_b - basic_val
            above = basic_val - ub_b
            viol = np.maximum(below, above)
            r = int(np.argmax(viol))
            if not viol[r] > self.feas_tol:
                break
            if st.limit_reached():
                status = ITERATION_LIMIT
                break

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
                xn = self._nonbasic_values(vstat, st.lower, st.upper)
                x_r = float(rho @ (self.rhs - self._aug @ xn))
                if max(lb_b[r] - x_r, x_r - ub_b[r]) > self.feas_tol:
                    status = INFEASIBLE
                break

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
            w_r = w.item(r)  # alpha_rq again, from the column side
            if not abs(w_r) > _PIVOT_TOL:
                break  # rounding wiped the pivot out: the primal loop goes on
            agreed = agreed and abs(w_r - a_c.item(k)) <= _AGREE_TOL * abs(w_r)
            theta = (basic_val[r] - (lb_b[r] if s > 0 else ub_b[r])) / w_r
            neg_d -= (t * s) * alpha
            neg_d[q] = 0.0
            st.iterations += 1
            if st.pivot(q, r, theta, w, np.flatnonzero(w), AT_LOWER if s > 0 else AT_UPPER):
                neg_d = self._neg_d(st.factor, basis)
                agreed = True
            # Dual degenerate steps leave the dual objective where it was;
            # a run of them goes to the primal loop and its anti-cycling.
            degen_streak = degen_streak + 1 if t <= _TIE_TOL else 0
            if degen_streak >= BLAND_AFTER:
                break
        return status, neg_d if agreed else None
