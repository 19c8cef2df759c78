"""Domain model and LP/SOS matrix construction for bid-level ad delivery.

An Instance describes businesses buying impressions for their campaigns.
Each campaign bids at a small number of discrete levels; every level
carries an expected gross return, an ad value (budget decrement per
impression) and an expected impression count.  Level 0 is always the
all-zero "do nothing" slack, so a campaign can opt out of bidding.

``build_model`` expands an Instance into a sparse LP:

* one column per campaign-level with bounds [0, 1] and the level's
  return as (maximization) objective coefficient,
* an equality convexity row per campaign (the level weights sum to 1),
* a budget row per business (spend at most the business budget),
* a click-balance row per business in homogeneous form (spend minus
  click value at most 0),
* one global impression row,
* one special ordered set per campaign with reference weights equal to
  the level indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BidLevelData:
    """One discrete bid level of a campaign.

    ``bid`` is pass-through metadata (the money bid that produces this
    level); it never enters the constraint matrix.
    """

    level_index: int
    ret: float
    ad_value: float
    impressions: float
    bid: float | None = None


@dataclass(frozen=True)
class Campaign:
    id: str
    business_id: str
    ctr: float
    levels: tuple[BidLevelData, ...]


@dataclass(frozen=True)
class Business:
    id: str
    budget: float
    cpc: float
    campaign_ids: tuple[str, ...]


@dataclass(frozen=True)
class Instance:
    businesses: tuple[Business, ...]
    campaigns: tuple[Campaign, ...]
    impression_budget: float


@dataclass(frozen=True)
class LpColumn:
    name: str
    objective: float
    lower: float
    upper: float


@dataclass(frozen=True)
class LpRow:
    """Sparse row.  ``sense`` is "L" (<=) or "E" (=); coefficients are
    (column position, value) pairs in column order."""

    name: str
    sense: str
    rhs: float
    coeffs: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class SosSet:
    """Ordered set of columns with strictly increasing reference weights.

    ``sos_type`` 1 allows at most one nonzero member; type 2 allows at
    most two and they must be adjacent.  ``bids`` mirrors the members'
    bid metadata (None where absent) for bid interpolation on output.
    """

    name: str
    sos_type: int
    members: tuple[int, ...]
    weights: tuple[float, ...]
    bids: tuple[float | None, ...] | None = None


@dataclass(frozen=True)
class LpModel:
    columns: tuple[LpColumn, ...]
    rows: tuple[LpRow, ...]
    sos_sets: tuple[SosSet, ...]
    maximize: bool = True
    column_index: dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.column_index:
            object.__setattr__(
                self,
                "column_index",
                {c.name: j for j, c in enumerate(self.columns)},
            )


def _check_amount(problems: list[str], where: str, name: str, value: float) -> None:
    if not math.isfinite(value):
        problems.append(f"{where}: {name} must be finite")
    elif value < 0:
        problems.append(f"{where}: {name} must be >= 0")


def validate_instance(instance: Instance) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the instance is well formed.  Nothing is raised;
    callers that require validity (build_model) raise on a nonempty result.
    """
    problems: list[str] = []

    _check_amount(problems, "instance", "impression_budget", instance.impression_budget)

    seen_business: set[str] = set()
    for b in instance.businesses:
        if not b.id:
            problems.append("business: empty id")
        if b.id in seen_business:
            problems.append(f"business {b.id}: duplicate id")
        seen_business.add(b.id)
        _check_amount(problems, f"business {b.id}", "budget", b.budget)
        _check_amount(problems, f"business {b.id}", "cpc", b.cpc)

    by_business: dict[str, list[str]] = {b.id: [] for b in instance.businesses}
    seen_campaign: set[str] = set()
    for c in instance.campaigns:
        if not c.id:
            problems.append("campaign: empty id")
        if c.id in seen_campaign:
            problems.append(f"campaign {c.id}: duplicate id")
        seen_campaign.add(c.id)
        if c.business_id not in by_business:
            problems.append(f"campaign {c.id}: unknown business {c.business_id!r}")
        else:
            by_business[c.business_id].append(c.id)
        if not (0.0 <= c.ctr <= 1.0):
            problems.append(f"campaign {c.id}: ctr must be in [0, 1]")
        if not c.levels:
            problems.append(f"campaign {c.id}: needs at least the slack level")
            continue
        for j, lev in enumerate(c.levels):
            if lev.level_index != j:
                problems.append(
                    f"campaign {c.id}: level_index values must be 0..{len(c.levels) - 1} consecutive"
                )
                break
        lev0 = c.levels[0]
        if lev0.ret != 0.0 or lev0.ad_value != 0.0 or lev0.impressions != 0.0:
            problems.append(f"campaign {c.id}: slack level must be all-zero")
        for lev in c.levels:
            where = f"campaign {c.id} level {lev.level_index}"
            _check_amount(problems, where, "ret", lev.ret)
            _check_amount(problems, where, "ad_value", lev.ad_value)
            _check_amount(problems, where, "impressions", lev.impressions)
            if lev.bid is not None and not math.isfinite(lev.bid):
                problems.append(f"{where}: bid must be finite")

    for b in instance.businesses:
        if sorted(b.campaign_ids) != sorted(by_business.get(b.id, [])):
            problems.append(
                f"business {b.id}: campaign_ids inconsistent with campaigns referencing it"
            )

    return problems


def build_model(instance: Instance) -> LpModel:
    """Expand a validated Instance into the LP/SOS matrix."""
    problems = validate_instance(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))

    columns: list[LpColumn] = []
    col_of: dict[tuple[str, int], int] = {}
    for c in instance.campaigns:
        for lev in c.levels:
            col_of[(c.id, lev.level_index)] = len(columns)
            columns.append(
                LpColumn(
                    name=f"D_{c.id}_{lev.level_index}",
                    objective=lev.ret,
                    lower=0.0,
                    upper=1.0,
                )
            )

    rows: list[LpRow] = []
    for c in instance.campaigns:
        coeffs = tuple((col_of[(c.id, lev.level_index)], 1.0) for lev in c.levels)
        rows.append(LpRow(name=f"CVX_{c.id}", sense="E", rhs=1.0, coeffs=coeffs))

    campaigns_of = {b.id: [c for c in instance.campaigns if c.business_id == b.id]
                    for b in instance.businesses}
    for b in instance.businesses:
        bud: list[tuple[int, float]] = []
        clk: list[tuple[int, float]] = []
        for c in campaigns_of[b.id]:
            for lev in c.levels:
                j = col_of[(c.id, lev.level_index)]
                bud.append((j, lev.impressions * lev.ad_value))
                clk.append((j, lev.impressions * (lev.ad_value - b.cpc * c.ctr)))
        bud.sort()
        clk.sort()
        rows.append(LpRow(name=f"BUD_{b.id}", sense="L", rhs=b.budget, coeffs=tuple(bud)))
        rows.append(LpRow(name=f"CLK_{b.id}", sense="L", rhs=0.0, coeffs=tuple(clk)))

    imp = tuple(
        (col_of[(c.id, lev.level_index)], lev.impressions)
        for c in instance.campaigns
        for lev in c.levels
    )
    rows.append(
        LpRow(name="IMP", sense="L", rhs=instance.impression_budget, coeffs=imp)
    )

    sos_sets = tuple(
        SosSet(
            name=f"S_{c.id}",
            sos_type=1,
            members=tuple(col_of[(c.id, lev.level_index)] for lev in c.levels),
            weights=tuple(float(lev.level_index) for lev in c.levels),
            bids=tuple(lev.bid for lev in c.levels),
        )
        for c in instance.campaigns
    )

    return LpModel(columns=tuple(columns), rows=tuple(rows), sos_sets=sos_sets)
