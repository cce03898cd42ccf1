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

The draws are fixed: Hypothesis runs derandomized, and the curve sets come
from one seeded generator.
"""

import numpy as np
from hypothesis import event, given, settings

from epicost.game import nash_iterate
from epicost.optimize import FOC_TOL, closure_condition
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
