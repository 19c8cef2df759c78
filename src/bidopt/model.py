"""Domain model and LP/SOS matrix construction for bid-level ad delivery.

An Instance describes businesses buying impressions for their campaigns.
Each campaign bids at a small number of discrete levels; every level
carries an expected gross return, an ad value (budget decrement per
impression) and an expected impression count.  Level 0 is always the
all-zero "do nothing" slack, so a campaign can opt out of bidding.
A campaign holds its curve as four parallel tuples, ``ret``,
``ad_value``, ``impressions`` and ``bid``: level j is position j of
each, so a level is known by its position and carries no index.

``build_model`` expands an Instance into a sparse LP:

* one column per campaign-level with bounds [0, 1] and the level's
  return as (maximization) objective coefficient,
* an equality convexity row per campaign (the level weights sum to 1),
* a budget row per business (spend at most the business budget),
* a click-balance row per business in homogeneous form (spend minus
  click value at most 0),
* one global impression row,
* one special ordered set per campaign, its run of columns, all SOS1
  (``search.relax_to_sos2`` makes them SOS2).

The LP is an ``LpModel`` held as arrays, the layout LP solvers work on:
names, the objective and bound vectors, row senses and right-hand
sides, the matrix in CSR (compressed sparse rows), and the sets as
offsets into the columns, the way CSR holds rows.  It is made from
those arrays only; the simplex engine and the file readers and writers
use them as they are.  Per-column ``LpColumn`` and per-row ``LpRow``
tuples are a view built on first use, for inspection and for the
benchmark's traced counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class Campaign:
    """A campaign and its bid-level curve, one entry per level in each
    tuple.  ``bid`` is pass-through metadata (the money bid that
    produces a level, None where absent); it never enters the
    constraint matrix."""

    id: str
    business_id: str
    ctr: float
    ret: tuple[float, ...]
    ad_value: tuple[float, ...]
    impressions: tuple[float, ...]
    bid: tuple[float | None, ...]


@dataclass(frozen=True)
class Business:
    """A business: its budget and the cost per click it is billed.  Its
    campaigns are those whose ``business_id`` names it."""

    id: str
    budget: float
    cpc: float


@dataclass(frozen=True)
class Instance:
    """Businesses, their campaigns and the impression budget they share.
    An instance checks itself when it is made, however it is made, and
    raises ``ValueError`` naming every problem ``validate_instance`` finds."""

    businesses: tuple[Business, ...]
    campaigns: tuple[Campaign, ...]
    impression_budget: float

    def __post_init__(self) -> None:
        problems = validate_instance(self)
        if problems:
            raise ValueError("invalid instance: " + "; ".join(problems))


@dataclass(frozen=True)
class LpColumn:
    """One column, as ``LpModel.columns`` lists it."""

    name: str
    objective: float
    lower: float
    upper: float


@dataclass(frozen=True)
class LpRow:
    """One row, as ``LpModel.rows`` lists it.  ``sense`` is "L" (<=) or
    "E" (=); coefficients are (column position, value) pairs in their
    stored order."""

    name: str
    sense: str
    rhs: float
    coeffs: tuple[tuple[int, float], ...]


@dataclass(frozen=True, eq=False)
class LpModel:
    """An LP with SOS sets, held as names and read-only numpy arrays.  It
    maximizes its objective.

    Columns are ``column_names`` with the float arrays ``objective``,
    ``lower`` and ``upper``.  Rows are ``row_names``, ``senses`` (one
    character per row: "L" for <=, "E" for =) and the float array
    ``rhs``.  The matrix is CSR: row i's entries are positions
    ``indptr[i]:indptr[i + 1]`` of ``indices`` (column positions) and
    ``data``, every stored entry kept in its given order, explicit zeros
    and repeated columns included (the engine sums repeats).  Set k,
    ``sos_names[k]``, is the column run ``sos_starts[k]:sos_starts[k + 1]``
    (the first from column 0), a member's reference weight its position in
    it; every set has type ``sos_type``: 1 allows at most one nonzero
    member, 2 at most two and they must be adjacent.  ``bids`` holds each
    column's level bid, NaN where there is none or none is given.

    ``columns`` and ``rows`` show the same model as ``LpColumn`` and
    ``LpRow`` tuples, built on first use, for inspection and for the
    benchmark's traced counts.  Models compare by identity;
    ``fileio.models_structurally_equal`` compares their contents.
    """

    column_names: tuple[str, ...]
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_names: tuple[str, ...]
    senses: str
    rhs: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sos_names: tuple[str, ...] = ()
    sos_starts: np.ndarray = field(default_factory=lambda: np.zeros(1, np.intp))
    sos_type: int = 1
    bids: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.bids is None:
            object.__setattr__(self, "bids", np.full(len(self.column_names), math.nan))
        for a in (self.objective, self.lower, self.upper, self.rhs,
                  self.indptr, self.indices, self.data, self.sos_starts, self.bids):
            a.flags.writeable = False

    @cached_property
    def columns(self) -> tuple[LpColumn, ...]:
        return tuple(map(
            LpColumn, self.column_names, self.objective.tolist(),
            self.lower.tolist(), self.upper.tolist(),
        ))

    @cached_property
    def rows(self) -> tuple[LpRow, ...]:
        ptr, idx, val = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        return tuple(
            LpRow(name, sense, rhs, tuple(zip(idx[a:b], val[a:b])))
            for name, sense, rhs, a, b in zip(
                self.row_names, self.senses, self.rhs.tolist(), ptr, ptr[1:]
            )
        )


def _check_amount(problems: list[str], where: str, name: str, value: float) -> None:
    if not math.isfinite(value):
        problems.append(f"{where}: {name} must be finite")
    elif value < 0:
        problems.append(f"{where}: {name} must be >= 0")


def _check_products(problems: list[str], instance: Instance) -> None:
    """Name each level whose spend, impressions * ad_value, or click
    weight, impressions * cpc * ctr, overflows: both are matrix entries.
    Every amount is finite and >= 0 here and ctr is at most 1, so the
    largest impressions times the largest ad_value or cpc bounds them all,
    and only an instance whose bound overflows is read level by level."""
    campaigns = instance.campaigns
    cpc = {b.id: b.cpc for b in instance.businesses}
    top = max(chain.from_iterable(c.impressions for c in campaigns), default=0.0)
    factor = max(chain.from_iterable(c.ad_value for c in campaigns), default=0.0)
    if top * max(factor, *cpc.values(), 0.0) < math.inf:
        return
    for c in campaigns:
        weight = cpc[c.business_id] * c.ctr
        for j, (impressions, ad_value) in enumerate(zip(c.impressions, c.ad_value)):
            where = f"campaign {c.id} level {j}"
            if impressions * ad_value == math.inf:
                problems.append(f"{where}: spend impressions * ad_value overflows")
            if impressions * weight == math.inf:
                problems.append(f"{where}: click weight impressions * cpc * ctr overflows")


def validate_instance(instance: Instance) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the instance is well formed.  Nothing is raised
    here; ``Instance`` raises on a nonempty result when it is made.
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

    seen_campaign: set[str] = set()
    for c in instance.campaigns:
        if not c.id:
            problems.append("campaign: empty id")
        if c.id in seen_campaign:
            problems.append(f"campaign {c.id}: duplicate id")
        seen_campaign.add(c.id)
        if c.business_id not in seen_business:
            problems.append(f"campaign {c.id}: unknown business {c.business_id!r}")
        if not (0.0 <= c.ctr <= 1.0):
            problems.append(f"campaign {c.id}: ctr must be in [0, 1]")
        if not (len(c.ad_value) == len(c.impressions) == len(c.bid) == len(c.ret)):
            problems.append(f"campaign {c.id}: level tuples differ in length")
            continue
        if not c.ret:
            problems.append(f"campaign {c.id}: needs at least the slack level")
            continue
        if c.ret[0] != 0.0 or c.ad_value[0] != 0.0 or c.impressions[0] != 0.0:
            problems.append(f"campaign {c.id}: slack level must be all-zero")
        for name in ("ret", "ad_value", "impressions"):
            for j, value in enumerate(getattr(c, name)):
                if not 0.0 <= value < math.inf:
                    _check_amount(problems, f"campaign {c.id} level {j}", name, value)
        for j, bid in enumerate(c.bid):
            if bid is not None and not math.isfinite(bid):
                problems.append(f"campaign {c.id} level {j}: bid must be finite")

    if not problems:
        _check_products(problems, instance)
    return problems


def build_model(instance: Instance) -> LpModel:
    """Expand an Instance (valid, as every Instance is) into the LP/SOS
    matrix.

    The levels' names and amounts are gathered straight from the
    campaigns' tuples; the rows' entries are then laid out with numpy,
    each row's in column order."""
    campaigns, businesses = instance.campaigns, instance.businesses
    sizes = np.array([len(c.ret) for c in campaigns], np.intp)
    names = [f"D_{c.id}_{j}" for c in campaigns for j in range(len(c.ret))]
    n, nc, nb = len(names), len(campaigns), len(businesses)
    m = nc + 2 * nb + 1
    ret, ad_value, impressions = (
        np.fromiter(chain.from_iterable(getattr(c, key) for c in campaigns), float, n)
        for key in ("ret", "ad_value", "impressions")
    )
    business_of = {b.id: k for k, b in enumerate(businesses)}
    owner = np.array([business_of[c.business_id] for c in campaigns], np.intp)
    cpc_ctr = np.array([b.cpc for b in businesses], float)[owner] * np.array(
        [c.ctr for c in campaigns], float
    )
    col_owner = owner.repeat(sizes)

    # Row of each entry: CVX per campaign, then BUD and CLK per business,
    # then IMP.  Each of the four blocks lists every column once, in order
    # (entry k is column k mod n), and the stable sort by row keeps that
    # order within each row.
    entry_row = np.concatenate((
        np.arange(nc).repeat(sizes),
        nc + 2 * col_owner,
        nc + 1 + 2 * col_owner,
        np.full(n, m - 1),
    ))
    entry_val = np.concatenate((
        np.ones(n),
        impressions * ad_value,
        impressions * (ad_value - cpc_ctr.repeat(sizes)),
        impressions,
    ))
    order = entry_row.argsort(kind="stable")
    indptr = np.zeros(m + 1, np.intp)
    np.cumsum(np.bincount(entry_row, minlength=m), out=indptr[1:])

    row_names = [f"CVX_{c.id}" for c in campaigns]
    rhs = [1.0] * nc
    for b in businesses:
        row_names += (f"BUD_{b.id}", f"CLK_{b.id}")
        rhs += (b.budget, 0.0)
    row_names.append("IMP")
    rhs.append(instance.impression_budget)

    return LpModel(
        column_names=tuple(names),
        objective=ret,
        lower=np.zeros(n),
        upper=np.ones(n),
        row_names=tuple(row_names),
        senses="E" * nc + "L" * (m - nc),
        rhs=np.array(rhs, float),
        indptr=indptr,
        indices=order % n,
        data=entry_val[order],
        sos_names=tuple(f"S_{c.id}" for c in campaigns),
        sos_starts=np.concatenate(([0], sizes.cumsum())),
        bids=np.array([math.nan if b is None else b for c in campaigns for b in c.bid], float),
    )
