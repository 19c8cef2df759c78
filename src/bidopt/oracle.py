"""Brute-force reference solvers for desk-size instances.

Both oracles recompute spend, click balance and impression use directly
from the raw Instance data.  They deliberately do not share any code
with ``build_model`` or the embedded simplex, so a bug in matrix
construction or in the solver cannot hide here.

``enumerate_sos1`` sweeps every one-level-per-campaign assignment.
``enumerate_sos2`` sweeps every combination of per-campaign adjacent
level intervals and solves a small LP over the interval weights with
scipy's linprog (an independent LP engine).  Single-level choices are
the endpoints of the intervals, so interval enumeration covers them.
"""

from __future__ import annotations

import math
import sys
from itertools import product

import numpy as np
from scipy.optimize import linprog

from .model import Instance

ENUM_CAP = 10_000_000
_CHUNK = 262_144
# Tiny slack relative to each row's activity mass so borderline
# assignments do not flip on float summation order.  A mass that
# overflows counts as the largest float.
_REL_SLACK = 1e-9


def _row_slacks(instance: Instance) -> tuple[dict[str, float], dict[str, float], float]:
    """Constant feasibility slacks per budget/click row and for impressions."""
    bud_tol: dict[str, float] = {}
    clk_tol: dict[str, float] = {}
    imp_mass = 1.0
    by_bus: dict[str, list] = {b.id: [] for b in instance.businesses}
    for c in instance.campaigns:
        by_bus[c.business_id].append(c)
        imp_mass += max(c.impressions)
    for b in instance.businesses:
        spend_mass = 1.0 + abs(b.budget)
        click_mass = 1.0
        for c in by_bus[b.id]:
            spend_mass += max(p * a for p, a in zip(c.impressions, c.ad_value))
            click_mass += max(
                abs(p * (a - b.cpc * c.ctr)) for p, a in zip(c.impressions, c.ad_value)
            )
        bud_tol[b.id] = _REL_SLACK * min(spend_mass, sys.float_info.max)
        clk_tol[b.id] = _REL_SLACK * min(click_mass, sys.float_info.max)
    imp_tol = _REL_SLACK * min(imp_mass + abs(instance.impression_budget), sys.float_info.max)
    return bud_tol, clk_tol, imp_tol


def enumerate_sos1(instance: Instance) -> tuple[float, dict[str, int]]:
    """Exhaustive maximum over one-level-per-campaign assignments.

    Returns (objective, chosen level per campaign id).  Assignments are
    ranked lexicographically in campaign order, first maximizer kept, so
    the result is deterministic.  The all-slack assignment is always
    feasible, so a solution always exists.
    """
    campaigns = instance.campaigns
    sizes = [len(c.ret) for c in campaigns]
    total = math.prod(sizes) if sizes else 1
    if total > ENUM_CAP:
        raise ValueError(f"enumeration size {total} exceeds cap {ENUM_CAP}")

    bud_tol, clk_tol, imp_tol = _row_slacks(instance)
    cpc = {b.id: b.cpc for b in instance.businesses}
    budget = {b.id: b.budget for b in instance.businesses}

    ret_tab = [np.array(c.ret) for c in campaigns]
    imp_tab = [np.array(c.impressions) for c in campaigns]
    spend_tab = [
        np.array([p * a for p, a in zip(c.impressions, c.ad_value)]) for c in campaigns
    ]
    click_tab = [
        np.array(
            [p * (a - cpc[c.business_id] * c.ctr) for p, a in zip(c.impressions, c.ad_value)]
        )
        for c in campaigns
    ]
    members = {
        b.id: [i for i, c in enumerate(campaigns) if c.business_id == b.id]
        for b in instance.businesses
    }

    # Campaign 0 is the most significant digit: index // stride % size.
    strides = [0] * len(sizes)
    run = 1
    for i in range(len(sizes) - 1, -1, -1):
        strides[i] = run
        run *= sizes[i]

    best_obj = -math.inf
    best_index = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        levels = [(idx // strides[i]) % sizes[i] for i in range(len(sizes))]
        obj = np.zeros(len(idx))
        feas = np.ones(len(idx), dtype=bool)
        for i in range(len(sizes)):
            obj += ret_tab[i][levels[i]]
        with np.errstate(over="ignore"):  # a row sum that overflows is infeasible
            for b in instance.businesses:
                spend = np.zeros(len(idx))
                click = np.zeros(len(idx))
                for i in members[b.id]:
                    spend += spend_tab[i][levels[i]]
                    click += click_tab[i][levels[i]]
                feas &= spend <= budget[b.id] + bud_tol[b.id]
                feas &= click <= clk_tol[b.id]
            imps = np.zeros(len(idx))
            for i in range(len(sizes)):
                imps += imp_tab[i][levels[i]]
        feas &= imps <= instance.impression_budget + imp_tol

        obj = np.where(feas, obj, -math.inf)
        k = int(np.argmax(obj))
        if obj[k] > best_obj:
            best_obj = float(obj[k])
            best_index = start + k

    assignment = {
        c.id: int((best_index // strides[i]) % sizes[i]) for i, c in enumerate(campaigns)
    }
    return best_obj, assignment


def enumerate_sos2(
    instance: Instance,
) -> tuple[float, dict[str, tuple[tuple[int, ...], tuple[float, ...]]]]:
    """Exhaustive maximum when each campaign may mix two adjacent levels.

    For every combination of per-campaign adjacent intervals the weights
    inside the intervals form a small LP, solved with scipy's linprog.
    Returns (objective, per-campaign (levels, weights)); a weight below
    1e-9 collapses the interval back to a single level.  Combinations
    whose constraint-free objective bound cannot beat the current best
    by more than 1e-9 are skipped (sound: the bound dominates the LP).
    An instance with no campaigns has only the empty assignment, worth 0.
    """
    campaigns = instance.campaigns
    if not campaigns:
        return 0.0, {}
    n_pat = [max(len(c.ret) - 1, 1) for c in campaigns]
    total = math.prod(n_pat)
    if total > ENUM_CAP:
        raise ValueError(f"enumeration size {total} exceeds cap {ENUM_CAP}")

    cpc = {b.id: b.cpc for b in instance.businesses}
    businesses = instance.businesses
    bus_pos = {b.id: k for k, b in enumerate(businesses)}

    # Rows 2k and 2k + 1 are business k's budget and click rows, the last
    # the impression row; a click row's bound -0.0 makes rhs - const equal
    # -const bit for bit.  A row whose mass, |bound| plus each campaign's
    # largest |term| (summed as integers, which cannot overflow), reaches
    # 2**40 is divided by 2**e, e the mass's frexp exponent, so that its
    # constants stay finite and of a size linprog handles; every other row
    # keeps its numbers bit for bit.
    bounds = [x for b in businesses for x in (b.budget, -0.0)] + [instance.impression_budget]
    mass = [int(abs(x)) for x in bounds]
    for c in campaigns:
        k, q = 2 * bus_pos[c.business_id], cpc[c.business_id] * c.ctr
        mass[k] += int(max(p * a for p, a in zip(c.impressions, c.ad_value)))
        mass[k + 1] += int(max(abs(p * (a - q)) for p, a in zip(c.impressions, c.ad_value)))
        mass[-1] += int(max(c.impressions))
    shift = [-m.bit_length() if m >= 2**40 else 0 for m in mass]
    rhs = np.ldexp(bounds, shift)

    # Interval (j, j+1): contribution = value(hi) + t * (value(lo) - value(hi)),
    # t in [0, 1] the weight on the lower level.  Single-member campaigns
    # (slack only) contribute the slack level as a constant and carry the
    # degenerate interval (0, 0).
    def quantities(c, j):
        p, a, k = c.impressions[j], c.ad_value[j], 2 * bus_pos[c.business_id]
        spend, click = p * a, p * (a - cpc[c.business_id] * c.ctr)
        return (c.ret[j], math.ldexp(spend, shift[k]), math.ldexp(click, shift[k + 1]),
                math.ldexp(p, shift[-1]))

    intervals: list[list[dict]] = []
    for c in campaigns:
        pats = []
        if len(c.ret) == 1:
            r, s, k, p = quantities(c, 0)
            pats.append(
                {"pair": (0, 0), "base": (r, s, k, p), "delta": (0.0, 0.0, 0.0, 0.0)}
            )
        else:
            for j in range(len(c.ret) - 1):
                rl, sl, kl, pl = quantities(c, j)
                rh, sh, kh, ph = quantities(c, j + 1)
                pats.append(
                    {
                        "pair": (j, j + 1),
                        "base": (rh, sh, kh, ph),
                        "delta": (rl - rh, sl - sh, kl - kh, pl - ph),
                    }
                )
        intervals.append(pats)

    best_obj = -math.inf
    best_combo: tuple[int, ...] | None = None
    best_t: np.ndarray | None = None

    for combo in product(*(range(n) for n in n_pat)):
        pats = [intervals[i][combo[i]] for i in range(len(campaigns))]
        ub = sum(p["base"][0] + max(p["delta"][0], 0.0) for p in pats)
        if ub <= best_obj + 1e-9:
            continue

        const = np.zeros(len(rhs))
        a_ub = np.zeros((len(rhs), len(campaigns)))
        c_obj = np.zeros(len(campaigns))
        for i, (c, p) in enumerate(zip(campaigns, pats)):
            r0, s0, k0, p0 = p["base"]
            dr, ds, dk, dp = p["delta"]
            k = bus_pos[c.business_id]
            const[2 * k] += s0
            const[2 * k + 1] += k0
            const[-1] += p0
            a_ub[2 * k, i] = ds
            a_ub[2 * k + 1, i] = dk
            a_ub[-1, i] = dp
            c_obj[i] = dr
        # Exact right-hand sides: linprog manages its own feasibility
        # tolerance, and any added slack here would let pattern optima
        # float above the true LP optimum.
        b_ub = rhs - const

        res = linprog(
            -c_obj,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0.0, 1.0)] * len(campaigns),
            method="highs",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        if res.status != 0:
            continue
        base_obj = sum(p["base"][0] for p in pats)
        value = base_obj - res.fun
        if value > best_obj:
            best_obj = float(value)
            best_combo = combo
            best_t = res.x.copy()

    if best_combo is None:  # cannot happen: the all-slack point is feasible
        raise RuntimeError("no feasible interval combination found")

    assignment: dict[str, tuple[tuple[int, ...], tuple[float, ...]]] = {}
    for i, c in enumerate(campaigns):
        lo, hi = intervals[i][best_combo[i]]["pair"]
        t = float(best_t[i])
        if lo == hi or t >= 1.0 - 1e-9:
            assignment[c.id] = ((lo,), (1.0,))
        elif t <= 1e-9:
            assignment[c.id] = ((hi,), (1.0,))
        else:
            assignment[c.id] = ((lo, hi), (t, 1.0 - t))
    return best_obj, assignment
