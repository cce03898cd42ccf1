"""The paper's claims as tested propositions, each on the domain where it holds.

- *Zero is the cheapest level to hold*: the steady holding cost rises
  strictly with the level held.
- *A region willing to suppress at one level is willing at a lower one*:
  monotone descent beats every relax-then-tighten schedule, though it does
  not beat every schedule that lets cases grow.
- *Without coordination, imports stay low but nonzero*: a Nash region lets
  imports in exactly when the full-closure condition fails.
- *With coordination, zero is cost-optimal*: ``tests/test_coop_sweep.py``
  checks ``cooperative_optimum``'s closed form against a brute-force sweep.
- *Cooperation pays more as travel grows*: the Nash objective total never
  falls as the travellers on a link grow, while the cooperative one stays
  put.

The draws are fixed: Hypothesis runs derandomized, and the curve sets come
from one seeded generator.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from epicost.fixtures import quadratic_set
from epicost.game import (GameState, RegionState, TravelLink, cooperative_optimum,
                          nash_iterate, solve_game)
from epicost.optimize import FOC_TOL, WIDTH_FRAC, closure_condition
from epicost.trajectory import (DynamicsParams, compare_monotone_vs_relax,
                                steady_state_holding_cost)
from test_optimize import random_valid_set
from test_properties import games

_rng = np.random.default_rng(0)
CURVE_SETS = [random_valid_set(_rng) for _ in range(150)]
PARAMS = DynamicsParams()


def test_zero_is_the_cheapest_level_to_hold():
    levels = np.linspace(0.0, 100.0, 200).tolist()
    for curves in CURVE_SETS:
        costs = [steady_state_holding_cost(curves, x, PARAMS) for x in levels]
        assert all(a < b for a, b in zip(costs, costs[1:])), curves


def test_monotone_descent_beats_relax_then_tighten_but_not_every_growth():
    """Monotone descent from 100 to 1 cases in 20 days beats every
    relax-then-tighten schedule, yet never beats every schedule with a
    growth day. ``DynamicsParams.weight(r0)`` is 0, so a schedule that
    crashes cases below the target and then coasts at r0, letting them
    grow, pays no stringency for its last days; descent pays some every
    day. Acceptance criterion 9 asserts the second and fails by design."""
    for curves in CURVE_SETS:
        cmp_ = compare_monotone_vs_relax(100.0, 1.0, 20, curves, PARAMS, 0.25)
        assert cmp_.monotone_beats_relax_then_tighten, curves
        assert not cmp_.monotone_dominates, curves


@settings(max_examples=300, deadline=None, derandomize=True)
@given(state=games())
def test_nash_imports_are_nonzero_exactly_when_closure_fails(state):
    """A Nash region facing a positive threat closes fully (screening 0)
    if and only if ``closure_condition`` holds on its link curves. Where
    the marginal cost at F = 0 lies within ``FOC_TOL`` of 0, the optimizer
    and the condition may judge the boundary differently; such decisions
    are skipped and counted as a Hypothesis event."""
    for d in nash_iterate(state, grid_points=400).outcome.decisions:
        threat = d.import_threat
        if threat == 0.0:
            continue
        curves = state.region(d.region).curves
        link_curves = curves._replace(border=curves.border.rescaled(threat))
        report = closure_condition(link_curves, threat)
        if abs(report.transmission_marginal - report.border_saving) <= FOC_TOL:
            event("F = 0 marginal within FOC_TOL")
            continue
        assert (d.screening == 0.0) == report.holds, d


def objectives(state):
    """Each region's Nash objective, and cooperation's objective total."""
    nash = [d.objective for d in nash_iterate(state, grid_points=400).outcome.decisions]
    return nash, sum(d.objective for d in cooperative_optimum(state).outcome.decisions)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(state=games(), more=st.tuples(st.integers(0, 3000), st.integers(0, 3000)))
def test_cooperation_saves_more_as_travel_grows(state, more):
    """The Nash objective total (transmission plus border, summed over the
    regions: what each region minimizes) never decreases as the travellers
    on either link grow, and the cooperative one is c0 of each region
    whatever the travel; so cooperation's saving on the objective grows
    with travel.

    Proof: a region facing threat theta minimizes T(alpha * theta * F) +
    B(F) over F in [0, 1], with B the link border cost in screening terms.
    For a fixed F this is nondecreasing in theta, since T is nondecreasing
    in the load; a minimum over F of functions nondecreasing in theta is
    nondecreasing in theta; and theta = ``expected_imports(k, L)`` grows
    with the travellers k. Cooperation holds zero cases with open borders,
    at T(0) + B(1) = c0 a region.

    The slack is the golden section's: it stops at a bracket WIDTH_FRAC
    wide on the F axis, so a reported minimum may lie above the true one
    by the objective's rise over that bracket, and the test allows
    WIDTH_FRAC of the objective. A 20,001-point F scan, refined near its
    winner, found no point cheaper than the reported minimum by 2e-16,
    relative, on 60 of these draws.

    The price of noncooperation also counts the outbreak burden, and it
    can fall as travel grows (the test below).
    """
    grown = state._replace(links=tuple(link._replace(travelers=link.travelers + k)
                                       for link, k in zip(state.links, more)))
    (before, coop_before), (after, coop_after) = objectives(state), objectives(grown)
    for b, a in zip(before, after):
        assert a >= b * (1.0 - WIDTH_FRAC), (b, a)
    assert sum(after) >= sum(before) * (1.0 - WIDTH_FRAC)
    c0 = sum(region.curves.transmission.c0 for region in state.regions)
    assert coop_before == coop_after == c0


def test_price_of_noncooperation_can_fall_as_travel_grows():
    """``GameSolution.gap`` adds the outbreak burden at the chosen load,
    which falls where a region screens harder against a larger threat.
    With both regions on the quadratic set, prevalence 1e-3 and population
    1e6, the gap is 4.1046 at 1,500 travellers a link and 4.0586 at 2,000,
    every decision interior."""
    regions = tuple(RegionState(name, 10**6, 1e-3, 0.0, quadratic_set()) for name in "AB")
    solutions = [solve_game(GameState(regions, (TravelLink("A", "B", k),
                                                TravelLink("B", "A", k))))
                 for k in (1_500, 2_000)]
    assert [round(sol.gap, 4) for sol in solutions] == [4.1046, 4.0586]
    assert all(d.classification == "interior"
               for sol in solutions for d in sol.nash.outcome.decisions)
