"""The cooperative optimum's closed form against a brute-force joint sweep.

``cooperative_optimum`` returns zero cases with open borders for both
regions without searching. The reference here costs every cell (x1, F1,
x2, F2) of a G-point grid through ``CostCurveSet.breakdown`` on the link
curves (border curve rescaled to a free level of 1). Prevalence is
endogenous at the steady state min(1, D * x / N) for a drawn number D of
infectious days, so the threat into a region grows with its partner's cases.
"""

import math
from itertools import product

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from epicost.errors import NumericalFailure
from epicost.fixtures import bundled_curve_sets
from epicost.game import GameState, RegionState, TravelLink, cooperative_optimum
from epicost.importation import expected_imports

OPEN_ZERO = (0.0, 1.0, 0.0, 1.0)


def reference_sweep(state, grid_points, infectious_days):
    """Least joint total over the grid and its first cell in row-major order.

    Cells are ordered (x1, F1, x2, F2); x runs over [0, max(1, domestic
    cases)] and F over [0, 1]. A cell whose cost overflows costs inf. Raises
    ``NumericalFailure`` when a threat overflows.
    """
    r1, r2 = state.regions
    x_max = max(1.0, r1.domestic_cases, r2.domestic_cases)
    last = grid_points - 1
    xs = [x_max * i / last for i in range(grid_points)]
    fs = [j / last for j in range(grid_points)]

    def threats(into, other):
        link = state.inbound_link(into.name)
        if link is None:
            return [0.0] * grid_points
        return [expected_imports(link.travelers,
                                 min(1.0, infectious_days * x / other.population))
                for x in xs]

    def cell_cost(link_curves, x, threat, f):
        load = x + link_curves.import_multiplier * threat * f
        try:
            return link_curves.breakdown(load, f).total
        except OverflowError:   # a huge finite threat overflows a power
            return math.inf

    def costs(region, threats_in):
        # [own cases][partner cases][F]
        link_curves = region.curves._replace(border=region.curves.border.rescaled(1.0))
        return [[[cell_cost(link_curves, x, threat, f) for f in fs]
                 for threat in threats_in] for x in xs]

    costs1, costs2 = costs(r1, threats(r1, r2)), costs(r2, threats(r2, r1))
    best = None
    for i1, j1, i2, j2 in product(range(grid_points), repeat=4):
        joint = costs1[i1][i2][j1] + costs2[i2][i1][j2]
        if best is None or joint < best[0]:
            best = (joint, (xs[i1], fs[j1], xs[i2], fs[j2]))
    return best


def swept(state, grid_points, infectious_days):
    try:
        return reference_sweep(state, grid_points, infectious_days)
    except NumericalFailure:
        reject()  # the reference's own threat overflows


_scale = st.floats(0.1, 10.0)


@st.composite
def region_states(draw, name):
    curves = draw(st.sampled_from(sorted(bundled_curve_sets().items())))[1]
    ct, cb, co = curves.transmission, curves.border, curves.outbreak
    curves = curves._replace(
        transmission=ct._replace(c0=ct.c0 * draw(_scale),
                                 tti_slope=ct.tti_slope * draw(_scale),
                                 wide_slope=ct.wide_slope * draw(_scale)),
        border=cb._replace(b0=cb.b0 * draw(_scale)),
        outbreak=co._replace(per_case=co.per_case * draw(_scale)))
    return RegionState(name, draw(st.integers(10**3, 10**7)), 0.0,
                       draw(st.floats(0.0, 100.0)), curves)


@st.composite
def game_states(draw):
    a, b = draw(region_states("A")), draw(region_states("B"))
    links = tuple(TravelLink(o, d, travelers)
                  for o, d in (("A", "B"), ("B", "A"))
                  if (travelers := draw(st.none() | st.integers(0, 2000))) is not None)
    return GameState((a, b), links)


_grids = st.integers(2, 12)
_days = st.floats(1.0, 30.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=game_states(), grid_points=_grids, infectious_days=_days)
def test_coop_result_matches_scalar_sweep(state, grid_points, infectious_days):
    least, _ = swept(state, grid_points, infectious_days)
    total = cooperative_optimum(state).outcome.total
    r1, r2 = state.regions
    assert total == r1.curves.transmission.c0 + r2.curves.transmission.c0
    assert least == total       # no cell of the grid is cheaper


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=game_states(), grid_points=_grids, infectious_days=_days)
def test_grid_winner_matches_scalar_sweep(state, grid_points, infectious_days):
    _, winner = swept(state, grid_points, infectious_days)
    coop = cooperative_optimum(state)
    d1, d2 = coop.outcome.decisions
    assert winner == OPEN_ZERO
    assert (d1.domestic_cases, d1.screening, d2.domestic_cases, d2.screening) == winner
    assert coop.steady_prevalences == (0.0, 0.0)


def test_gate_rejected_curves_keep_the_zero_case_total():
    # b0 = 0, a flat T and no outbreak cost fail the shape gate and make every
    # cell cost 2 c0; the closed form returns zero cases, open borders
    linear = bundled_curve_sets()["linear"]
    flat = linear._replace(transmission=linear.transmission._replace(tti_slope=0.0),
                           border=linear.border._replace(b0=0.0),
                           outbreak=linear.outbreak._replace(per_case=0.0))
    regions = tuple(RegionState(name, 10**6, 0.0, 5.0, flat) for name in "AB")
    state = GameState(regions, (TravelLink("A", "B", 300), TravelLink("B", "A", 300)))
    coop = cooperative_optimum(state)
    assert [(d.domestic_cases, d.screening) for d in coop.outcome.decisions] == [
        (0.0, 1.0), (0.0, 1.0)]
    least, _ = reference_sweep(state, 6, 10.0)
    assert coop.outcome.total == least == 2 * linear.transmission.c0
