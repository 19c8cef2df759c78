"""SOS1/SOS2 branch and bound with hot-start variable fixing.

A set is a run of columns, and a member's reference weight its position
in the run.  ``sos_scan`` reads an LP point for every set at once; the
branching, strategies 2 and 3 and the solution file's bids start from it.

Three fixing strategies read the root LP and pin columns before the
tree search starts.  Fixes are bounds dicts, column -> (lower, upper),
the overrides ``SimplexEngine.solve`` takes and each tree node carries:

1. a set whose LP solution puts some member at or above ``NEAR_ONE_TOL``
   is rounded to that member, provided the member is the do-nothing
   slack or every sibling's reduced cost says raising it strictly hurts
   the objective by more than ``RC_TOL``;
2. a set with exactly one member above ``ZERO_TOL`` is rounded to it;
   otherwise members outside the span of nonzero members are zeroed;
3. (SOS2 models) members outside each set's nonzero span are zeroed;
   unsatisfied sets are then also narrowed to the adjacent pair
   bracketing the weighted-average position, the LP is
   resolved, and a feasible resolve becomes the first incumbent.  The
   narrowing is not kept for the search.  When the search stops at the
   first solution, that incumbent is returned before the fixes are
   applied to the root.

If the LP with the fixes applied does not solve to optimality (it is
infeasible, say) the fixes are withdrawn as a group and the search
proceeds from the unfixed root.  That LP is not solved when the root's
primal already lies within every fixed column's bounds: the root is
then feasible for the fixed LP and optimal for a looser one, so it is
the fixed LP's solution as it stands.  Branching splits the most violated
set at its weighted-average position; nodes are explored
depth-first until the first incumbent and best-bound after.  A node LP
that stops short of optimality before the time limit (an iteration
limit) is solved once more from the cold basis; if that fails too, the
node is dropped and the search ends ``feasible`` (or ``limit`` without
an incumbent), never ``optimal``.

Reduced-cost fixing (Dantzig, Fulkerson & Johnson, "Solution of a
large-scale traveling-salesman problem", Oper. Res. 1954; Nemhauser &
Wolsey, "Integer and Combinatorial Optimization", 1988).  At every node
branched on after the first incumbent, a set member whose LP value is
exactly 0 and whose reduced cost d is negative is fixed to 0 in both
children when the node's objective z plus d would be pruned.  Any point
of the node's LP with that member at 1 is worth at most z + d, and in an
SOS1 model whose every set is exactly the support of one equality row
with all its coefficients equal to its right-hand side (``build_model``'s
convexity rows), a set's one nonzero member is 1.  So fixing cuts off
nothing that could beat the incumbent by more than the gap, and
``--prove`` proves what it proves without it.  Other models, SOS2 ones
among them, get no such fixes.  A column the node's bounds already hold
keeps its bounds.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import LpModel
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
    SimplexEngine,
)

NEAR_ONE_TOL = 0.95
ZERO_TOL = 1e-6
RC_TOL = 1e-5
GAP = 1e-4

STRATEGIES = ("none", "1", "2", "3")

Bounds = dict[int, tuple[float, float]]
Scan = tuple[np.ndarray, np.ndarray, np.ndarray]  # what sos_scan returns


@dataclass(frozen=True)
class SearchLimits:
    time_limit: float | None = None
    node_limit: int | None = None
    gap: float = GAP
    first_solution: bool = True


@dataclass(frozen=True)
class SolveReport:
    status: str  # optimal | feasible | infeasible | limit
    incumbent_objective: float | None
    lp_relaxation_objective: float
    degradation_pct: float | None
    first_solution_seconds: float | None
    total_seconds: float
    nodes: int
    strategy: str
    first_incumbent_objective: float | None = None
    first_solution_degradation_pct: float | None = None


def sos_scan(model: LpModel, primal: np.ndarray) -> Scan:
    """Every set's nonzero count, first nonzero position and last nonzero
    position, as three arrays from one pass over ``primal``.  A member is
    nonzero when its |value| exceeds ``ZERO_TOL``.  A set with no nonzero
    member has a first position past its end and a last one below 0."""
    starts = model.sos_starts
    a, end = starts[:-1], starts[-1]
    col = np.arange(end)
    nonzero = np.abs(primal[:end]) > ZERO_TOL
    count = np.add.reduceat(nonzero, a, dtype=np.intp)
    first = np.minimum.reduceat(np.where(nonzero, col, end), a) - a
    last = np.maximum.reduceat(np.where(nonzero, col, -1), a) - a
    return count, first, last


def violation_measure(sos_type: int, scan: Scan) -> np.ndarray:
    """Each set's nonzero count beyond the allowed one, plus one for an
    SOS2 span wider than an adjacent pair.  Zero exactly where the set is
    satisfied."""
    count, first, last = scan
    if sos_type == 1:
        return np.maximum(count - 1, 0)
    return np.where(count <= 1, 0, count - 2 + (last - first > 1))


def sos_satisfied(model: LpModel, primal: np.ndarray) -> bool:
    return not violation_measure(model.sos_type, sos_scan(model, primal)).any()


def _pick_violated(model: LpModel, scan: Scan) -> int | None:
    """The most violated set, the lowest-numbered on ties; None when every
    set is satisfied."""
    measure = violation_measure(model.sos_type, scan)
    return int(measure.argmax()) if np.count_nonzero(measure) else None


def _runs(model: LpModel, scan: Scan):
    """Each set's first and end column and its ``scan`` entries, as ints."""
    starts = model.sos_starts.tolist()
    return zip(starts, starts[1:], *(x.tolist() for x in scan))


def _zero_outside(a: int, b: int, lo: int, hi: int) -> Bounds:
    """Fix to zero every column of ``a:b`` outside ``lo..hi``."""
    return {j: (0.0, 0.0) for j in range(a, b) if j < lo or j > hi}


def _round_to(a: int, b: int, col: int) -> Bounds:
    """Fix column ``col`` to one and every other column of ``a:b`` to zero."""
    return {j: (1.0, 1.0) if j == col else (0.0, 0.0) for j in range(a, b)}


def _split_position(primal: np.ndarray, a: int, b: int) -> int:
    """The last position at or below the weighted-average position of
    the set on columns ``a:b``, 0 when no member is positive."""
    total = acc = 0.0
    for p, v in enumerate(primal[a:b].tolist()):
        v = max(v, 0.0)
        total += v
        acc += p * v
    return min(math.floor(acc / total), b - a - 1) if total > 0.0 else 0


def strategy1_fix(model: LpModel, lp: LpSolution) -> Bounds:
    """Round near-one sets to their dominant member."""
    fixes: Bounds = {}
    primal, reduced = lp.primal.tolist(), lp.reduced_costs.tolist()
    starts = model.sos_starts.tolist()
    for a, b in zip(starts, starts[1:]):
        star = next((j for j in range(a, b) if primal[j] >= NEAR_ONE_TOL), None)
        if star is None:
            continue
        # Unless it is the slack, raising any sibling must strictly
        # worsen the objective.
        if star == a or all(reduced[j] < -RC_TOL for j in range(a, b) if j != star):
            fixes.update(_round_to(a, b, star))
    return fixes


def strategy2_fix(model: LpModel, lp: LpSolution) -> Bounds:
    """Round exactly-one-nonzero sets; zero outside the nonzero span
    otherwise."""
    fixes: Bounds = {}
    for a, b, count, first, last in _runs(model, sos_scan(model, lp.primal)):
        if count == 1:
            fixes.update(_round_to(a, b, a + first))
        elif count:
            fixes.update(_zero_outside(a, b, a + first, a + last))
    return fixes


def relax_to_sos2(model: LpModel) -> LpModel:
    """The SOS2 model over the same matrix and sets, which it shares."""
    if model.sos_type != 1:
        raise ValueError("relax_to_sos2 expects an all-SOS1 model")
    return replace(model, sos_type=2)


def current_interval(model: LpModel, k: int, primal: np.ndarray) -> tuple[int, int]:
    """The positions of the adjacent member pair of set ``k`` bracketing
    its weighted-average position."""
    a, b = model.sos_starts[k:k + 2].tolist()
    last = b - a - 1
    r = min(_split_position(primal, a, b), max(last - 1, 0))
    return r, min(r + 1, last)


def _sets_are_convexity_rows(model: LpModel) -> bool:
    """Whether each set's run is exactly the support of one equality row
    whose coefficients all equal its nonzero right-hand side, its stored
    entries being the run's columns in order.  A set's one nonzero member
    in an SOS1-feasible point is then 1."""
    starts = model.sos_starts.tolist()
    end_of = dict(zip(starts, starts[1:]))
    ptr, idx, val = model.indptr.tolist(), model.indices, model.data
    covered = set()
    for i, (sense, rhs) in enumerate(zip(model.senses, model.rhs.tolist())):
        lo, hi = ptr[i], ptr[i + 1]
        if sense != "E" or lo == hi or rhs == 0.0:
            continue
        a = int(idx[lo])
        if (
            end_of.get(a) == a + hi - lo
            and (idx[lo:hi] == np.arange(a, a + hi - lo)).all()
            and (val[lo:hi] == rhs).all()
        ):
            covered.add(a)
    return len(covered) == len(end_of)


def _reduced_cost_fixes(lp: LpSolution, end: int, bounds: Bounds, cutoff: float) -> Bounds:
    """Zero fixes for the columns of ``0:end`` that ``lp`` holds at exactly
    0 with a negative reduced cost d whose ``lp.objective + d`` is at most
    ``cutoff``, leaving out every column ``bounds`` holds."""
    d = lp.reduced_costs[:end]
    hit = (lp.primal[:end] == 0.0) & (d < 0.0) & (lp.objective + d <= cutoff)
    return {j: (0.0, 0.0) for j in hit.nonzero()[0].tolist() if j not in bounds}


def _solve(engine: SimplexEngine, deadline: float | None, **kwargs) -> LpSolution:
    """``engine.solve``, given the deadline only when there is one, so an
    engine that takes just ``solve(bounds, warm, max_iterations)`` still
    serves every search without a time limit."""
    if deadline is not None:
        kwargs["deadline"] = deadline
    return engine.solve(**kwargs)


def strategy3_hotstart(
    model: LpModel,
    lp: LpSolution,
    engine: SimplexEngine,
    deadline: float | None = None,
) -> tuple[Bounds, LpSolution | None]:
    """Zero-flag outside nonzero spans, narrow unsatisfied sets to their
    current interval, resolve, and offer the resolve as an incumbent.

    Returns the zero flags, which the search keeps, and the resolve, or
    None when the narrowed LP does not solve to optimality (a resolve
    cut off at ``deadline``, a ``time.perf_counter()`` value, included).
    The narrowing applies to the resolve only.
    """
    if model.sos_type != 2:
        raise ValueError("strategy 3 requires an SOS2 model")

    scan = sos_scan(model, lp.primal)
    violated = violation_measure(2, scan).tolist()
    zero_flags: Bounds = {}
    narrowing: Bounds = {}
    for k, (a, b, count, first, last) in enumerate(_runs(model, scan)):
        if not count:
            continue
        zero_flags.update(_zero_outside(a, b, a + first, a + last))
        if violated[k]:
            lo, hi = current_interval(model, k, lp.primal)
            narrowing.update(_zero_outside(a, b, a + lo, a + hi))

    trial = _solve(
        engine, deadline, bounds={**zero_flags, **narrowing}, warm=lp.basis
    )
    return zero_flags, (trial if trial.status == OPTIMAL else None)


def sos_branch(
    bounds: Bounds, model: LpModel, k: int, scan: Scan, lp: LpSolution
) -> tuple[Bounds, Bounds]:
    """The two children's bounds when the node with ``bounds`` splits
    violated set ``k`` at its weighted-average position; ``lp`` is the
    node's LP and ``scan`` is ``sos_scan`` of ``lp.primal``.

    The left child zeroes members above the split, the right child
    zeroes members at or below it (strictly below for SOS2, so the
    split member stays free on both sides).  The split is clamped into
    the nonzero span so each child zeroes at least one genuinely
    nonzero member and the parent LP point is excluded.
    """
    count, first, last = scan[0].item(k), scan[1].item(k), scan[2].item(k)
    if not count:
        raise ValueError("cannot branch on an all-zero set")
    a, b = model.sos_starts[k:k + 2].tolist()
    r = _split_position(lp.primal, a, b)
    if model.sos_type == 1:
        r = min(max(r, first), last - 1)
    else:
        r = min(max(r, first + 1), last - 1)

    cut_right = r if model.sos_type == 2 else r + 1
    return (
        {**bounds, **_zero_outside(a, b, a, a + r)},
        {**bounds, **_zero_outside(a, b, a + cut_right, b - 1)},
    )


def interpolate_bids(model: LpModel, primal: np.ndarray) -> list[float | None]:
    """The bid each set implies, in set order: its single nonzero
    member's bid, or the value-weighted mix of an adjacent nonzero pair's
    bids.  None for an all-zero or slack-only set or a missing bid.
    Raises ``ValueError`` at the first set that is not SOS2-satisfied."""
    bids, values = model.bids.tolist(), primal.tolist()
    out: list[float | None] = []
    for name, (a, _, count, first, last) in zip(
        model.sos_names, _runs(model, sos_scan(model, primal))
    ):
        if count > 2 or (count == 2 and last - first != 1):
            raise ValueError(f"set {name} is not SOS2-satisfied")
        if not count or (count == 1 and not first):
            out.append(None)
            continue
        b_a, b_b = bids[a + first], bids[a + last]  # one member: the same bid
        if math.isnan(b_a) or math.isnan(b_b):
            out.append(None)
        elif count == 1:
            out.append(b_a)
        else:
            v_a, v_b = values[a + first], values[a + last]
            out.append((v_a * b_a + v_b * b_b) / (v_a + v_b))
    return out


def branch_and_bound(
    model: LpModel,
    strategy: str = "none",
    limits: SearchLimits | None = None,
    engine: SimplexEngine | None = None,
) -> tuple[SolveReport, np.ndarray | None]:
    """Solve the SOS problem; returns (report, primal values or None).

    ``strategy`` is "1", "2", "3" or "none".  Strategy 3 requires an
    SOS2 model (relax_to_sos2 first).  Degradation is always
    reported against the root LP relaxation, solved before any fixing.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if limits is None:
        limits = SearchLimits()
    if engine is None:
        engine = SimplexEngine(model)

    if strategy == "3" and model.sos_type != 2:
        raise ValueError("strategy 3 requires an SOS2 model (relax_to_sos2 first)")

    t_start = time.perf_counter()
    # Every LP solve, the root's included, stops at the time limit.
    deadline = None if limits.time_limit is None else t_start + limits.time_limit
    root = _solve(engine, deadline)

    incumbent_obj = -math.inf
    incumbent_vals: np.ndarray | None = None
    first_obj: float | None = None
    first_secs: float | None = None

    def report(status: str, nodes: int) -> SolveReport:
        lp_obj = root.objective if root.status == OPTIMAL else math.nan
        inc_obj = None if incumbent_vals is None else incumbent_obj

        def degr(v):
            if v is None or math.isnan(lp_obj):
                return None
            if lp_obj != 0.0:
                d = 100.0 * (lp_obj - v) / abs(lp_obj)
            elif v == 0.0:
                d = 0.0
            else:
                d = abs(lp_obj - v)
            return 0.0 if abs(d) < 1e-9 else d

        return SolveReport(
            status=status,
            incumbent_objective=inc_obj,
            lp_relaxation_objective=lp_obj,
            degradation_pct=degr(inc_obj),
            first_solution_seconds=first_secs,
            total_seconds=time.perf_counter() - t_start,
            nodes=nodes,
            strategy=strategy,
            first_incumbent_objective=first_obj,
            first_solution_degradation_pct=degr(first_obj),
        )

    if root.status == INFEASIBLE:
        return report(INFEASIBLE, 0), None
    if root.status == UNBOUNDED:
        raise RuntimeError("LP relaxation is unbounded")
    if root.status == ITERATION_LIMIT:
        return report("limit", 0), None

    def take_incumbent(sol: LpSolution) -> None:
        nonlocal incumbent_obj, incumbent_vals, first_obj, first_secs
        if sol.objective > incumbent_obj + 1e-12:
            incumbent_obj = sol.objective
            incumbent_vals = sol.primal
            if first_obj is None:
                first_obj = sol.objective
                first_secs = time.perf_counter() - t_start

    def cutoff() -> float:
        """The bound at or below which a node is pruned."""
        return incumbent_obj + max(limits.gap * max(1.0, abs(incumbent_obj)), 1e-9)

    def pruned(bound: float) -> bool:
        return incumbent_vals is not None and bound <= cutoff()

    fixes: Bounds = {}
    if strategy == "1":
        fixes = strategy1_fix(model, root)
    elif strategy == "2":
        fixes = strategy2_fix(model, root)
    elif strategy == "3":
        fixes, hot = strategy3_hotstart(model, root, engine, deadline)
        if hot is not None and sos_satisfied(model, hot.primal):
            take_incumbent(hot)
            if limits.first_solution:
                return report("feasible", 0), incumbent_vals
    start_sol = root
    # A root that already meets every fix solves the fixed LP too.
    if any(not lo <= root.primal[j] <= hi for j, (lo, hi) in fixes.items()):
        trial = _solve(engine, deadline, bounds=fixes, warm=root.basis)
        if trial.status == OPTIMAL:
            start_sol = trial
        else:
            # Withdraw the fixes as a group; search from the unfixed root.
            fixes = {}

    # Tree search over one frontier, an entry per open node:
    # (-bound, creation order, bounds, warm start basis).  It is a stack
    # (depth-first) until the first incumbent appears, then a heap
    # (best-bound).  Creation orders are unique, so the heap never
    # compares two bounds dicts.  The root, creation order 0, reuses
    # start_sol.
    order = 1
    frontier = [(-start_sol.objective, 0, fixes, None)]
    best_first = False
    nodes_evaluated = 0
    unproven = False  # a limit was hit or a node LP failed twice
    fixing = None  # whether reduced-cost fixing is valid, checked on first use

    while frontier:
        if (deadline is not None and time.perf_counter() >= deadline) or (
            limits.node_limit is not None and nodes_evaluated >= limits.node_limit
        ):
            unproven = True
            break
        if incumbent_vals is not None and not best_first:
            heapq.heapify(frontier)
            best_first = True
        neg_bound, node_order, bounds, warm = (
            heapq.heappop(frontier) if best_first else frontier.pop()
        )
        if pruned(-neg_bound):
            continue

        if node_order == 0:
            lp = start_sol
        else:
            lp = _solve(engine, deadline, bounds=bounds, warm=warm)
        nodes_evaluated += 1

        if lp.status not in (OPTIMAL, INFEASIBLE):
            # A node LP cut off short of the deadline gets one more try
            # from the cold basis; failing again, the node is dropped.
            if deadline is not None and time.perf_counter() >= deadline:
                unproven = True
                break
            lp = _solve(engine, deadline, bounds=bounds)
            if lp.status not in (OPTIMAL, INFEASIBLE):
                unproven = True
                continue
        if lp.status == INFEASIBLE:
            continue
        if pruned(lp.objective):
            continue

        scan = sos_scan(model, lp.primal)
        violated = _pick_violated(model, scan)
        if violated is None:
            take_incumbent(lp)
            if limits.first_solution:
                break
            continue
        if incumbent_vals is not None:
            if fixing is None:
                fixing = model.sos_type == 1 and _sets_are_convexity_rows(model)
            if fixing:
                zeros = _reduced_cost_fixes(lp, model.sos_starts[-1], bounds, cutoff())
                if zeros:
                    bounds = {**bounds, **zeros}

        children = sos_branch(bounds, model, violated, scan, lp)
        for i in (1, 0):  # right, then left: the stack pops the left child first
            entry = (-lp.objective, order + i, children[i], lp.basis)
            if best_first:
                heapq.heappush(frontier, entry)
            else:
                frontier.append(entry)
        order += 2

    if incumbent_vals is None:
        status = "limit" if unproven else INFEASIBLE
    elif unproven or (limits.first_solution and frontier):
        status = "feasible"
    else:
        status = OPTIMAL
    return report(status, nodes_evaluated), incumbent_vals
