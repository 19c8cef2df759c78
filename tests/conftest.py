import struct

import numpy as np
import pytest

from bidopt.generate import GenParams, scale_suite
from bidopt.model import Business, Campaign, Instance, LpModel


def make_t1() -> Instance:
    """One business, one campaign, two bid levels plus the slack.

    Hand-solvable: the LP relaxation is max 50x + 120y subject to
    50x + 160y <= 100 and x + y <= 1, optimum 900/11 at x = 6/11,
    y = 5/11.
    """
    c1 = Campaign(
        "c1", "k1", 0.4,
        ret=(0.0, 50.0, 120.0),
        ad_value=(0.0, 0.5, 0.8),
        impressions=(0.0, 100.0, 200.0),
        bid=(None, 0.40, 0.70),
    )
    return Instance(
        businesses=(Business("k1", 100.0, 2.0),),
        campaigns=(c1,),
        impression_budget=1000.0,
    )


def make_rollback_instance() -> Instance:
    """Strategy 2 rounding makes the LP infeasible here.

    The LP optimum needs a 5e-7 sliver of campaign cb's level to keep
    the click row balanced while ca runs at level 1.  The sliver is
    below zero_tol, so strategy 2 rounds both sets; the rounded LP then
    violates the click row and the fixes must be withdrawn.
    """
    return Instance(
        businesses=(Business("k1", 15.0, 1.2),),
        campaigns=(
            Campaign("ca", "k1", 0.075, (0.0, 100.0), (0.0, 0.1), (0.0, 100.0), (None, None)),
            Campaign("cb", "k1", 1.0, (0.0, 1.0), (0.0, 1.0), (0.0, 1e7), (None, None)),
        ),
        impression_budget=1e9,
    )


def make_overflow_instance() -> Instance:
    """Finite amounts whose row masses overflow.

    Each campaign's level 1 spends 1e308 and puts about 1e308 on the
    click row, whose right-hand side is 0, so the optimum is all slack,
    0.  Two such spends sum past the largest float.
    """
    return Instance(
        businesses=(Business("b", 1.5e308, 1.0),),
        campaigns=tuple(
            Campaign(cid, "b", 0.5, (0.0, ret), (0.0, 1e8), (0.0, 1e300), (None, None))
            for cid, ret in (("c1", 5.0), ("c2", 1.0))
        ),
        impression_budget=1e301,
    )


def make_nonadjacent_instance() -> Instance:
    """LP optimum mixes levels 1 and 3 (return curve dips at level 2).

    Returns (0, 12, 13, 30) against spends (0, 10, 20, 30): level 2
    sits below the concave envelope, so with budget 20 the unique LP
    optimum splits half-half between levels 1 and 3 (objective 21).
    The best SOS2 point is all of level 2, objective 13.
    """
    c1 = Campaign(
        "c1", "k1", 0.5,
        ret=(0.0, 12.0, 13.0, 30.0),
        ad_value=(0.0, 0.1, 0.2, 0.3),
        impressions=(0.0, 100.0, 100.0, 100.0),
        bid=(None,) * 4,
    )
    return Instance(
        businesses=(Business("k1", 20.0, 1.0),),
        campaigns=(c1,),
        impression_budget=1e6,
    )


def from_tuples(columns, rows, sos=(), sos_type=1, bids=None) -> LpModel:
    """The model whose ``columns`` and ``rows`` views are these
    ``LpColumn`` and ``LpRow`` tuples, for models written by hand.
    ``sos`` lists each set's (name, size): the sets are runs of columns
    from column 0, in this order."""
    indptr = np.cumsum([0] + [len(r.coeffs) for r in rows], dtype=np.intp)
    entries = [e for r in rows for e in r.coeffs]
    return LpModel(
        tuple(c.name for c in columns),
        np.array([c.objective for c in columns], float),
        np.array([c.lower for c in columns], float),
        np.array([c.upper for c in columns], float),
        tuple(r.name for r in rows),
        "".join(r.sense for r in rows),
        np.array([r.rhs for r in rows], float),
        indptr,
        np.array([j for j, _ in entries], np.intp),
        np.array([v for _, v in entries], float),
        sos_names=tuple(name for name, _ in sos),
        sos_starts=np.cumsum([0, *(size for _, size in sos)], dtype=np.intp),
        sos_type=sos_type,
        bids=bids,
    )


def sets_of(model: LpModel) -> list[tuple[str, int]]:
    """A model's sets as ``from_tuples`` takes them."""
    return [*zip(model.sos_names, np.diff(model.sos_starts).tolist())]


def same_solution(a, b) -> bool:
    """Whether two solutions are equal bit for bit."""

    def key(sol):
        reduced = None if sol.reduced_costs is None else sol.reduced_costs.tobytes()
        objective = struct.pack("<d", sol.objective)
        return sol.status, objective, sol.primal.tobytes(), reduced, sol.iterations, sol.basis

    return key(a) == key(b)


def build_suite():
    """Small-instance sweep shared by the acceptance tests: totals of
    2..8 campaigns split over 1..3 businesses, 2..5 bid levels,
    tightness in {0.3, 0.7, 1.5}."""
    out = []
    n = 0
    for bus in (1, 2, 3):
        for total in range(2, 9):
            for levels in range(2, 6):
                for tight in (0.3, 0.7, 1.5):
                    base = GenParams(
                        businesses=min(bus, total),
                        campaigns_per_business=1,
                        levels_per_campaign=levels,
                        budget_tightness=tight,
                        impression_tightness=1.2,
                        seed=1000 + n,
                    )
                    out.append(scale_suite(base, [total])[0])
                    n += 1
    return out


@pytest.fixture
def t1_instance():
    return make_t1()


@pytest.fixture
def t1_model(t1_instance):
    from bidopt.model import build_model

    return build_model(t1_instance)


@pytest.fixture
def rollback_instance():
    return make_rollback_instance()


@pytest.fixture
def nonadjacent_instance():
    return make_nonadjacent_instance()


@pytest.fixture(scope="session")
def suite1():
    return build_suite()


@pytest.fixture(scope="session")
def scale_base():
    """Generator parameters of acceptance criterion 6a's scale instances."""
    return GenParams(
        businesses=10,
        campaigns_per_business=1,
        levels_per_campaign=(2, 5),
        budget_tightness=0.7,
        impression_tightness=1.5,
        seed=61,
    )
