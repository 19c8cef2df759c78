"""SOS1/SOS2 branch and bound with hot-start variable fixing.

Three fixing strategies read the root LP and pin columns before the
tree search starts.  Fixes are bounds dicts, column -> (lower, upper),
the same overrides ``SimplexEngine.solve`` and ``Node`` take:

1. a set whose LP solution puts some member at or above ``near_one_tol``
   is rounded to that member, provided the member is the do-nothing
   slack or every sibling's reduced cost says raising it strictly hurts
   the objective by more than ``rc_tol``;
2. a set with exactly one member above ``zero_tol`` is rounded to it;
   otherwise members outside the span of nonzero members are zeroed;
3. (SOS2 models) members outside each set's nonzero span are zeroed;
   unsatisfied sets are then also narrowed to the adjacent pair
   bracketing the weighted-average reference weight, the LP is
   resolved, and a feasible resolve becomes the first incumbent.  The
   narrowing is not kept for the search.  When the search stops at the
   first solution, that incumbent is returned before the fixes are
   applied to the root.

If the LP with the fixes applied does not solve to optimality (it is
infeasible, say) the fixes are withdrawn as a group and the search
proceeds from the unfixed root.  Branching splits the most violated
set at the weighted-average reference weight; nodes are explored
depth-first until the first incumbent and best-bound after.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

from .model import LpModel, SosSet
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


@dataclass(frozen=True)
class Node:
    bounds: Bounds
    lp_bound: float
    creation_order: int
    warm: tuple[int, ...] | None = None


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
    sos_count: int
    strategy: str
    sos_type_used: int
    first_incumbent_objective: float | None = None
    first_solution_degradation_pct: float | None = None


def _nonzero_positions(sos: SosSet, primal, zero_tol: float) -> list[int]:
    return [p for p, j in enumerate(sos.members) if abs(primal[j]) > zero_tol]


def _zero_outside(sos: SosSet, lo: int, hi: int) -> Bounds:
    """Fix to zero every member outside positions lo..hi."""
    return {j: (0.0, 0.0) for p, j in enumerate(sos.members) if p < lo or p > hi}


def _round_to(sos: SosSet, pos: int) -> Bounds:
    """Fix the member at ``pos`` to one and every other member to zero."""
    return {
        j: (1.0, 1.0) if p == pos else (0.0, 0.0) for p, j in enumerate(sos.members)
    }


def violation_measure(sos: SosSet, primal, zero_tol: float = ZERO_TOL) -> float:
    """Nonzero count beyond the allowed one, plus one for an SOS2 span
    wider than an adjacent pair.  Zero exactly when the set is satisfied."""
    nz = _nonzero_positions(sos, primal, zero_tol)
    if sos.sos_type == 1:
        return max(len(nz) - 1, 0)
    if len(nz) <= 1:
        return 0
    return (len(nz) - 2) + (1 if nz[-1] - nz[0] > 1 else 0)


def sos_satisfied(sos: SosSet, primal, zero_tol: float = ZERO_TOL) -> bool:
    return violation_measure(sos, primal, zero_tol) == 0


def _weighted_average(sos: SosSet, primal) -> float:
    total = 0.0
    acc = 0.0
    for w, j in zip(sos.weights, sos.members):
        v = max(primal[j], 0.0)
        total += v
        acc += w * v
    if total <= 0.0:
        return sos.weights[0]
    return acc / total


def _split_position(sos: SosSet, wbar: float) -> int:
    r = 0
    for p, w in enumerate(sos.weights):
        if w <= wbar:
            r = p
    return r


def strategy1_fix(
    model: LpModel,
    lp: LpSolution,
    near_one_tol: float = NEAR_ONE_TOL,
    rc_tol: float = RC_TOL,
) -> Bounds:
    """Round near-one sets to their dominant member."""
    sense = 1.0 if model.maximize else -1.0
    fixes: Bounds = {}
    for sos in model.sos_sets:
        near = [p for p, j in enumerate(sos.members) if lp.primal[j] >= near_one_tol]
        if not near:
            continue
        p_star = near[0]
        if p_star != 0:
            # Raising any sibling must strictly worsen the objective.
            ok = all(
                sense * lp.reduced_costs[j] < -rc_tol
                for p, j in enumerate(sos.members)
                if p != p_star
            )
            if not ok:
                continue
        fixes.update(_round_to(sos, p_star))
    return fixes


def strategy2_fix(model: LpModel, lp: LpSolution, zero_tol: float = ZERO_TOL) -> Bounds:
    """Round exactly-one-nonzero sets; zero outside the nonzero span
    otherwise."""
    fixes: Bounds = {}
    for sos in model.sos_sets:
        nz = _nonzero_positions(sos, lp.primal, zero_tol)
        if len(nz) == 1:
            fixes.update(_round_to(sos, nz[0]))
        elif nz:
            fixes.update(_zero_outside(sos, nz[0], nz[-1]))
    return fixes


def relax_to_sos2(model: LpModel) -> LpModel:
    """Retype every SOS1 set as SOS2; the matrix is untouched."""
    if any(s.sos_type != 1 for s in model.sos_sets):
        raise ValueError("relax_to_sos2 expects an all-SOS1 model")
    return replace(
        model, sos_sets=tuple(replace(s, sos_type=2) for s in model.sos_sets)
    )


def current_interval(sos: SosSet, primal) -> tuple[int, int]:
    """Adjacent member pair bracketing the weighted-average weight."""
    last = len(sos.members) - 1
    r = _split_position(sos, _weighted_average(sos, primal))
    r = min(max(r, 0), last - 1) if last >= 1 else 0
    return r, min(r + 1, last)


def strategy3_hotstart(
    model: LpModel,
    lp: LpSolution,
    engine: SimplexEngine,
    zero_tol: float = ZERO_TOL,
) -> tuple[Bounds, LpSolution | None]:
    """Zero-flag outside nonzero spans, narrow unsatisfied sets to their
    current interval, resolve, and offer the resolve as an incumbent.

    Returns the zero flags, which the search keeps, and the resolve, or
    None when the narrowed LP does not solve to optimality.  The
    narrowing applies to the resolve only.
    """
    if any(s.sos_type != 2 for s in model.sos_sets):
        raise ValueError("strategy 3 requires an SOS2 model")

    zero_flags: Bounds = {}
    narrowing: Bounds = {}
    for sos in model.sos_sets:
        nz = _nonzero_positions(sos, lp.primal, zero_tol)
        if not nz:
            continue
        zero_flags.update(_zero_outside(sos, nz[0], nz[-1]))
        if not sos_satisfied(sos, lp.primal, zero_tol):
            narrowing.update(_zero_outside(sos, *current_interval(sos, lp.primal)))

    trial = engine.solve(bounds={**zero_flags, **narrowing}, warm=lp.basis)
    return zero_flags, (trial if trial.status == OPTIMAL else None)


def sos_branch(
    node: Node, sos: SosSet, lp: LpSolution, first_order: int = 0,
    zero_tol: float = ZERO_TOL,
) -> tuple[Node, Node]:
    """Split a violated set at the weighted-average reference weight.

    The left child zeroes members above the split, the right child
    zeroes members at or below it (strictly below for SOS2, so the
    split member stays free on both sides).  The split is clamped into
    the nonzero span so each child zeroes at least one genuinely
    nonzero member and the parent LP point is excluded.  Both children
    take ``lp``'s objective as their bound and its basis as their warm
    start.
    """
    nz = _nonzero_positions(sos, lp.primal, zero_tol)
    if not nz:
        raise ValueError("cannot branch on an all-zero set")
    r = _split_position(sos, _weighted_average(sos, lp.primal))
    if sos.sos_type == 1:
        r = min(max(r, nz[0]), nz[-1] - 1)
    else:
        r = min(max(r, nz[0] + 1), nz[-1] - 1)

    cut_right = r if sos.sos_type == 2 else r + 1
    left = {**node.bounds, **_zero_outside(sos, 0, r)}
    right = {**node.bounds, **_zero_outside(sos, cut_right, len(sos.members) - 1)}
    return (
        Node(left, lp.objective, first_order, lp.basis),
        Node(right, lp.objective, first_order + 1, lp.basis),
    )


def interpolate_bid(sos: SosSet, solution, zero_tol: float = ZERO_TOL) -> float | None:
    """Bid implied by an SOS2-satisfied set: the single nonzero member's
    bid, or the value-weighted mix of an adjacent pair's bids.  None for
    a slack-only set or missing bid metadata."""
    primal = solution.primal if isinstance(solution, LpSolution) else solution
    nz = _nonzero_positions(sos, primal, zero_tol)
    if not nz:
        return None
    if len(nz) == 1:
        if nz[0] == 0:
            return None
        bid = sos.bids[nz[0]] if sos.bids else None
        return bid
    if len(nz) != 2 or nz[1] - nz[0] != 1:
        raise ValueError(f"set {sos.name} is not SOS2-satisfied")
    if not sos.bids:
        return None
    b_a, b_b = sos.bids[nz[0]], sos.bids[nz[1]]
    if b_a is None or b_b is None:
        return None
    v_a = primal[sos.members[nz[0]]]
    v_b = primal[sos.members[nz[1]]]
    return (v_a * b_a + v_b * b_b) / (v_a + v_b)


def _pick_violated(model: LpModel, primal, zero_tol: float) -> SosSet | None:
    best = None
    best_measure = 0.0
    for sos in model.sos_sets:
        measure = violation_measure(sos, primal, zero_tol)
        if measure > best_measure:
            best = sos
            best_measure = measure
    return best


def branch_and_bound(
    model: LpModel,
    strategy: str | int | None = "none",
    limits: SearchLimits | None = None,
    near_one_tol: float = NEAR_ONE_TOL,
    zero_tol: float = ZERO_TOL,
    rc_tol: float = RC_TOL,
    engine: SimplexEngine | None = None,
) -> tuple[SolveReport, tuple[float, ...] | None]:
    """Solve the SOS problem; returns (report, primal values or None).

    ``strategy`` is "1", "2", "3" or "none".  Strategy 3 requires all
    sets to be SOS2 (relax_to_sos2 first).  Degradation is always
    reported against the root LP relaxation, solved before any fixing.
    """
    strategy = "none" if strategy in (None, "none") else str(strategy)
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if limits is None:
        limits = SearchLimits()
    if engine is None:
        engine = SimplexEngine(model)

    sos_type_used = 2 if model.sos_sets and all(
        s.sos_type == 2 for s in model.sos_sets
    ) else 1
    if strategy == "3" and sos_type_used != 2:
        raise ValueError("strategy 3 requires an SOS2 model (relax_to_sos2 first)")

    t_start = time.perf_counter()
    root = engine.solve()

    def report(status, inc_obj, first_obj, first_secs, nodes):
        lp_obj = root.objective if root.status == OPTIMAL else math.nan

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
            sos_count=len(model.sos_sets),
            strategy=strategy,
            sos_type_used=sos_type_used,
            first_incumbent_objective=first_obj,
            first_solution_degradation_pct=degr(first_obj),
        )

    if root.status == INFEASIBLE:
        return report(INFEASIBLE, None, None, None, 0), None
    if root.status == UNBOUNDED:
        raise RuntimeError("LP relaxation is unbounded")
    if root.status == ITERATION_LIMIT:
        return report("limit", None, None, None, 0), None

    incumbent_obj = -math.inf
    incumbent_vals: tuple[float, ...] | None = None
    first_obj: float | None = None
    first_secs: float | None = None

    def take_incumbent(sol: LpSolution) -> None:
        nonlocal incumbent_obj, incumbent_vals, first_obj, first_secs
        if sol.objective > incumbent_obj + 1e-12:
            incumbent_obj = sol.objective
            incumbent_vals = sol.primal
            if first_obj is None:
                first_obj = sol.objective
                first_secs = time.perf_counter() - t_start

    def pruned(bound: float) -> bool:
        if incumbent_vals is None:
            return False
        slack = max(limits.gap * max(1.0, abs(incumbent_obj)), 1e-9)
        return bound <= incumbent_obj + slack

    fixes: Bounds = {}
    if strategy == "1":
        fixes = strategy1_fix(model, root, near_one_tol, rc_tol)
    elif strategy == "2":
        fixes = strategy2_fix(model, root, zero_tol)
    elif strategy == "3":
        fixes, hot = strategy3_hotstart(model, root, engine, zero_tol)
        if hot is not None and _pick_violated(model, hot.primal, zero_tol) is None:
            take_incumbent(hot)
            if limits.first_solution:
                return (
                    report("feasible", incumbent_obj, first_obj, first_secs, 0),
                    incumbent_vals,
                )
    start_sol = root
    if fixes:
        trial = engine.solve(bounds=fixes, warm=root.basis)
        if trial.status == OPTIMAL:
            start_sol = trial
        else:
            # Withdraw the fixes as a group; search from the unfixed root.
            fixes = {}

    # Tree search over one frontier of (-bound, creation order, node)
    # entries: a stack (depth-first) until the first incumbent appears,
    # then a heap (best-bound).  Creation orders are unique, so entries
    # never tie.  The root, creation order 0, reuses start_sol.
    order = 1
    frontier = [(-start_sol.objective, 0, Node(fixes, start_sol.objective, 0))]
    best_first = False
    nodes_evaluated = 0
    hit_limit = False

    while frontier:
        if limits.time_limit is not None and time.perf_counter() - t_start >= limits.time_limit:
            hit_limit = True
            break
        if limits.node_limit is not None and nodes_evaluated >= limits.node_limit:
            hit_limit = True
            break
        if incumbent_vals is not None and not best_first:
            heapq.heapify(frontier)
            best_first = True
        node = heapq.heappop(frontier)[2] if best_first else frontier.pop()[2]
        if pruned(node.lp_bound):
            continue

        if node.creation_order == 0:
            lp = start_sol
        else:
            lp = engine.solve(bounds=node.bounds, warm=node.warm)
        nodes_evaluated += 1

        if lp.status == INFEASIBLE:
            continue
        if lp.status != OPTIMAL:
            hit_limit = True
            break
        if pruned(lp.objective):
            continue

        violated = _pick_violated(model, lp.primal, zero_tol)
        if violated is None:
            take_incumbent(lp)
            if limits.first_solution:
                break
            continue

        for child in reversed(sos_branch(node, violated, lp, order, zero_tol)):
            entry = (-child.lp_bound, child.creation_order, child)
            if best_first:
                heapq.heappush(frontier, entry)
            else:
                frontier.append(entry)
        order += 2

    if incumbent_vals is not None:
        if hit_limit or (limits.first_solution and frontier):
            status = "feasible"
        else:
            status = OPTIMAL
        return (
            report(status, incumbent_obj, first_obj, first_secs, nodes_evaluated),
            incumbent_vals,
        )
    if hit_limit:
        return report("limit", None, None, None, nodes_evaluated), None
    return report(INFEASIBLE, None, None, None, nodes_evaluated), None
