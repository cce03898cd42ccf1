"""Metamorphic properties of the solvers: region swap and cost scaling."""


from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicost.costs import CostCurveSet
from epicost.fixtures import bundled_curve_sets, quadratic_set
from epicost.game import GameState, RegionState, TravelLink, solve_game
from epicost.optimize import FOC_TOL, minimize_over_imports, minimize_over_screening

_curves = st.sampled_from(sorted(bundled_curve_sets().items())).map(lambda kv: kv[1])
_scale = st.floats(0.1, 10.0)


@st.composite
def scaled_curves(draw):
    """A bundled curve set with each cost level scaled independently."""
    curves = draw(_curves)
    ct, cb, co = curves.transmission, curves.border, curves.outbreak
    return curves._replace(
        transmission=ct._replace(c0=ct.c0 * draw(_scale),
                                 tti_slope=ct.tti_slope * draw(_scale),
                                 breakdown_jump=ct.breakdown_jump * draw(_scale),
                                 wide_slope=ct.wide_slope * draw(_scale)),
        border=cb._replace(b0=cb.b0 * draw(_scale)),
        outbreak=co._replace(per_case=co.per_case * draw(_scale)))


@st.composite
def games(draw):
    """Two regions with nonzero prevalence and travel in both directions."""
    a, b = (RegionState(name, draw(st.integers(10**3, 10**7)),
                        draw(st.floats(1e-5, 3e-3)), draw(st.floats(0.0, 100.0)),
                        draw(scaled_curves()))
            for name in "AB")
    links = (TravelLink("A", "B", draw(st.integers(1, 2000))),
             TravelLink("B", "A", draw(st.integers(1, 2000))))
    return GameState((a, b), links)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(state=games())
def test_swapping_the_regions_swaps_the_decisions(state):
    ab = solve_game(state, grid_points=400)
    swapped = GameState(state.regions[::-1], state.links[::-1])
    ba = solve_game(swapped, grid_points=400)
    assert ba.nash.outcome.decisions == ab.nash.outcome.decisions[::-1]
    assert ba.cooperative.outcome.decisions == ab.cooperative.outcome.decisions[::-1]
    assert ba.gap == ab.gap


def scale_costs(curves: CostCurveSet, lam: float) -> CostCurveSet:
    ct, cb, co = curves.transmission, curves.border, curves.outbreak
    return curves._replace(
        transmission=ct._replace(c0=lam * ct.c0, tti_slope=lam * ct.tti_slope,
                                 breakdown_jump=lam * ct.breakdown_jump,
                                 wide_slope=lam * ct.wide_slope),
        border=cb._replace(b0=lam * cb.b0),
        outbreak=co._replace(per_case=lam * co.per_case))


def assert_scaled(base, scaled, lam):
    assert scaled.argument == base.argument
    assert scaled.classification == base.classification
    assert scaled.cost == lam * base.cost


# a power of two scales every cost, marginal and comparison exactly
@settings(max_examples=150, deadline=None, derandomize=True)
@given(curves=scaled_curves(), k=st.integers(-6, 6),
       threat_frac=st.floats(0.0, 1.0), domestic=st.floats(0.0, 60.0))
# a near-flat objective: neighbouring grid costs differ by about 4e-12, so an
# absolute tie tolerance of 1e-12 picked a different F once costs were scaled
@example(curves=quadratic_set(), k=-3, threat_frac=1e-9, domestic=0.0)
def test_scaling_every_cost_scales_the_optimum(curves, k, threat_frac, domestic):
    lam = 2.0**k
    scaled = scale_costs(curves, lam)
    opts = dict(grid_points=500)
    assert_scaled(minimize_over_imports(curves, foc_tol=FOC_TOL, **opts),
                  minimize_over_imports(scaled, foc_tol=lam * FOC_TOL, **opts), lam)
    threat = threat_frac * curves.border.i_free
    assert_scaled(
        minimize_over_screening(curves, threat, domestic, foc_tol=FOC_TOL, **opts),
        minimize_over_screening(scaled, threat, domestic, foc_tol=lam * FOC_TOL, **opts),
        lam)
