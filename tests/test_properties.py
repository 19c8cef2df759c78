"""Property tests: degenerate instances from build to verified solution.

Zero budgets, zero impressions, slack-only campaigns and equal
neighbouring levels give LPs with tied ratios, degenerate pivots and
duplicate columns, where the simplex's tie-breaks decide the vertex.
Whatever vertex it lands on, every incumbent must verify against the
raw instance, every optimal LP's primal must meet the model's rows to
1e-9, and the bounds must chain: LP >= SOS2 >= SOS1, with SOS1 equal to
the brute-force oracle, and SOS2 equal to its oracle on instances of at
most ``SOS2_ORACLE_MAX_CAMPAIGNS`` campaigns.  Examples are derandomized
and capped, so the suite's run time stays fixed.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bidopt.fileio import verify_solution
from bidopt.generate import GenParams, generate_instance
from bidopt.model import build_model
from bidopt.oracle import enumerate_sos1, enumerate_sos2
from bidopt.search import SearchLimits, branch_and_bound, relax_to_sos2
from bidopt.simplex import OPTIMAL, SimplexEngine

PROVE = SearchLimits(first_solution=False, gap=0.0)
FIRST = SearchLimits(first_solution=True)

ROW_TOL = 1e-9
# enumerate_sos2 solves one LP per combination of intervals
SOS2_ORACLE_MAX_CAMPAIGNS = 4


class RowCheckedEngine(SimplexEngine):
    """Asserts that the primal of every optimal solve meets every row."""

    def solve(self, *args, **kwargs):
        sol = super().solve(*args, **kwargs)
        if sol.status == OPTIMAL:
            for row in self.model.rows:
                activity = math.fsum(v * sol.primal[j] for j, v in row.coeffs)
                excess = activity - row.rhs
                assert (excess if row.sense == "L" else abs(excess)) <= ROW_TOL, row.name
        return sol


# (SOS type, strategy, limits): the modes of the benchmark's sweep
MODES = (
    (1, "none", PROVE),
    (2, "none", PROVE),
    (1, "1", FIRST),
    (1, "2", FIRST),
    (2, "3", FIRST),
)


def _degenerate_campaign(draw, campaign):
    kind = draw(st.sampled_from(["keep", "slack-only", "zero-impressions", "equal-neighbours"]))
    curve = {f: list(getattr(campaign, f)) for f in ("ret", "ad_value", "impressions", "bid")}
    if kind == "slack-only":
        curve = {f: t[:1] for f, t in curve.items()}
    elif kind == "zero-impressions":
        k = draw(st.integers(1, len(campaign.ret) - 1))
        curve["impressions"][k] = 0.0
    elif kind == "equal-neighbours":
        k = draw(st.integers(0, len(campaign.ret) - 2))
        for t in curve.values():
            t[k + 1] = t[k]
    return dataclasses.replace(campaign, **{f: tuple(t) for f, t in curve.items()})


@st.composite
def degenerate_instances(draw):
    instance = generate_instance(
        GenParams(
            businesses=draw(st.integers(1, 2)),
            campaigns_per_business=draw(st.integers(1, 3)),
            levels_per_campaign=draw(st.integers(1, 3)),
            budget_tightness=draw(st.sampled_from([0.3, 0.7, 1.5])),
            impression_tightness=draw(st.sampled_from([0.5, 1.2])),
            seed=draw(st.integers(0, 10_000)),
        )
    )
    businesses = tuple(
        dataclasses.replace(b, budget=0.0) if draw(st.booleans()) else b
        for b in instance.businesses
    )
    campaigns = tuple(_degenerate_campaign(draw, c) for c in instance.campaigns)
    impression_budget = 0.0 if draw(st.booleans()) else instance.impression_budget
    return dataclasses.replace(
        instance,
        businesses=businesses,
        campaigns=campaigns,
        impression_budget=impression_budget,
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(degenerate_instances())
def test_degenerate_instances_verify_and_chain(instance):
    model = build_model(instance)
    lp = RowCheckedEngine(model).solve()
    assert lp.status == OPTIMAL
    slack = 1e-9 * max(1.0, abs(lp.objective))

    proved = {}
    for sos_type, strategy, limits in MODES:
        solved = relax_to_sos2(model) if sos_type == 2 else model
        report, values = branch_and_bound(
            solved, strategy, limits, engine=RowCheckedEngine(solved)
        )
        # all-slack is always feasible, so every mode finds an incumbent
        assert values is not None, (sos_type, strategy)
        columns = {c.name: v for c, v in zip(solved.columns, values)}
        assert verify_solution(instance, columns, sos_type=sos_type) == []
        assert report.incumbent_objective <= lp.objective + slack
        if limits is PROVE:
            assert report.status == OPTIMAL
            proved[sos_type] = report.incumbent_objective

    assert proved[1] <= proved[2] + slack
    oracle, _ = enumerate_sos1(instance)
    assert abs(proved[1] - oracle) <= 1e-6 * max(1.0, abs(oracle))
    if len(instance.campaigns) <= SOS2_ORACLE_MAX_CAMPAIGNS:
        oracle, _ = enumerate_sos2(instance)
        assert abs(proved[2] - oracle) <= 1e-6 * max(1.0, abs(oracle))
