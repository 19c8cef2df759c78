"""Synthetic instance generator with staircase bid-level curves.

Distributions are generator policy, not data anybody measured:

* impressions grow geometrically level to level (factor 1.2 to 1.9),
* ad values rise by positive steps whose sizes follow the requested
  curve shape (uniform steps, front-loaded with the big steps early, or
  back-loaded with the biggest step at the top),
* returns are impressions x click-through rate x a per-business value
  per click x noise, then forced strictly increasing,
* the business budget is ``budget_tightness`` times the spend of the
  all-top-level assignment, and the impression budget is
  ``impression_tightness`` times its impression count,
* cost per click is calibrated so the all-top-level assignment meets
  the click-balance row with a margin drawn from ``click_margin``.
  Margins >= 1 (the default) keep that row slack by construction, which
  is what makes generous budgets reduce to per-campaign greedy argmax;
  pass a margin below 1 to generate click-constrained instances.

Everything is drawn from one seeded stream in a fixed order, so equal
params produce identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import BidLevelData, Business, Campaign, Instance

CURVE_SHAPES = ("uniform", "front-loaded", "back-loaded")


@dataclass(frozen=True)
class GenParams:
    """Generator controls.

    ``campaigns_per_business`` and ``levels_per_campaign`` may be a
    count or an inclusive (low, high) range.  ``levels_per_campaign``
    counts real bid levels; the all-zero "do nothing" level 0 is always
    added on top, so a value of 2 yields sets of 3 members.
    """

    businesses: int = 1
    campaigns_per_business: int | tuple[int, int] = 10
    levels_per_campaign: int | tuple[int, int] = 4
    budget_tightness: float = 0.7
    impression_tightness: float = 1.5
    curve_shape: str = "uniform"
    seed: int = 0
    click_margin: tuple[float, float] = (1.05, 1.4)


def _check(params: GenParams) -> None:
    def count_ok(v):
        if isinstance(v, tuple):
            return len(v) == 2 and 1 <= v[0] <= v[1]
        return v >= 1

    if params.businesses < 1:
        raise ValueError("businesses must be >= 1")
    if not count_ok(params.campaigns_per_business):
        raise ValueError("campaigns_per_business must be a count >= 1 or a (low, high) range")
    if not count_ok(params.levels_per_campaign):
        raise ValueError("levels_per_campaign must be a count >= 1 or a (low, high) range")
    if not (params.budget_tightness > 0 and params.impression_tightness > 0):
        raise ValueError("tightness values must be positive")
    if params.curve_shape not in CURVE_SHAPES:
        raise ValueError(f"curve_shape must be one of {CURVE_SHAPES}")
    lo, hi = params.click_margin
    if not (0 < lo <= hi):
        raise ValueError("click_margin must be a positive (low, high) range")


def _draw_count(rng: np.random.Generator, v) -> int:
    if isinstance(v, tuple):
        return int(rng.integers(v[0], v[1] + 1))
    return int(v)


def _av_steps(rng: np.random.Generator, levels: int, shape: str) -> np.ndarray:
    raw = rng.uniform(0.5, 1.5, size=levels)
    j = np.arange(levels, dtype=float)
    if shape == "front-loaded":
        raw = raw * 4.0 ** (-j)
    elif shape == "back-loaded":
        raw = raw * 4.0**j
    rise = rng.uniform(0.2, 2.0)
    return raw * (rise / raw.sum())


def _generate(params: GenParams, campaign_counts: list[int] | None) -> Instance:
    _check(params)
    rng = np.random.default_rng(params.seed)

    businesses: list[Business] = []
    campaigns: list[Campaign] = []
    top_impressions = 0.0

    for k in range(params.businesses):
        bus_id = f"b{k + 1}"
        if campaign_counts is None:
            n_campaigns = _draw_count(rng, params.campaigns_per_business)
        else:
            n_campaigns = campaign_counts[k]

        ids: list[str] = []
        top_spend = 0.0
        top_click_weight = 0.0
        bus_campaigns: list[tuple[str, float, list[BidLevelData]]] = []
        vpc = rng.uniform(0.5, 3.0)

        for i in range(n_campaigns):
            cid = f"{bus_id}_c{i + 1}"
            ids.append(cid)
            n_levels = _draw_count(rng, params.levels_per_campaign)
            ctr = rng.uniform(0.01, 0.2)

            p1 = rng.uniform(50.0, 500.0)
            growth = rng.uniform(1.2, 1.9)
            imps = p1 * growth ** np.arange(n_levels)

            av = rng.uniform(0.05, 0.5) + np.cumsum(
                _av_steps(rng, n_levels, params.curve_shape)
            )

            ret = imps * ctr * vpc * rng.uniform(0.85, 1.15, size=n_levels)
            for j in range(1, n_levels):
                ret[j] = max(ret[j], ret[j - 1] * 1.01)

            bid = av * rng.uniform(0.9, 1.1, size=n_levels)

            levels = [BidLevelData(0, 0.0, 0.0, 0.0)]
            for j in range(n_levels):
                levels.append(
                    BidLevelData(
                        level_index=j + 1,
                        ret=float(ret[j]),
                        ad_value=float(av[j]),
                        impressions=float(imps[j]),
                        bid=float(bid[j]),
                    )
                )
            bus_campaigns.append((cid, ctr, levels))
            top_spend += float(imps[-1] * av[-1])
            top_click_weight += float(ctr * imps[-1])
            top_impressions += float(imps[-1])

        margin = rng.uniform(*params.click_margin)
        cpc = margin * top_spend / top_click_weight if top_click_weight > 0 else 1.0
        businesses.append(
            Business(
                id=bus_id,
                budget=params.budget_tightness * top_spend,
                cpc=cpc,
                campaign_ids=tuple(ids),
            )
        )
        for cid, ctr, levels in bus_campaigns:
            campaigns.append(
                Campaign(id=cid, business_id=bus_id, ctr=ctr, levels=tuple(levels))
            )

    return Instance(
        businesses=tuple(businesses),
        campaigns=tuple(campaigns),
        impression_budget=params.impression_tightness * top_impressions,
    )


def generate_instance(params: GenParams) -> Instance:
    """Generate one instance, deterministic in (params, seed)."""
    return _generate(params, campaign_counts=None)


def scale_suite(base: GenParams, sos_counts: list[int]) -> list[Instance]:
    """One instance per requested total campaign count.

    Campaigns are spread as evenly as possible over ``base.businesses``
    businesses; instance number i uses seed ``base.seed + i`` so the
    suite is deterministic as a whole.
    """
    out = []
    for idx, total in enumerate(sos_counts):
        if total < base.businesses:
            raise ValueError(f"sos count {total} below business count {base.businesses}")
        q, r = divmod(total, base.businesses)
        counts = [q + 1 if k < r else q for k in range(base.businesses)]
        out.append(_generate(replace(base, seed=base.seed + idx), counts))
    return out
