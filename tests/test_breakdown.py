"""``CostCurveSet.breakdown`` against the scalar cost spellings it replaced.

Each ``reference_*`` function keeps one of the seven places that wrote the
policy cost out by hand: the optimizer's axis objective and its kink value,
``aggregate_cost``, ``total_policy_cost``, the game's link breakdown,
``daily_cost`` and ``steady_state_holding_cost``. The functions built on
``breakdown`` must give the same floats bit for bit (or raise the same
error). The kink value is compared at the breakdown load itself, the only
load at which it was the objective; the optimizer now costs the kink by the
objective at its argument, which the last tests check.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicost.costs import (BorderCost, CostBreakdown, CostCurveSet, OutbreakCost,
                           TransmissionCost)
from epicost.errors import DomainError
from epicost.game import RegionState, _decision
from epicost.optimize import (aggregate_cost, minimize_over_imports,
                              minimize_over_screening, total_policy_cost)
from epicost.trajectory import DynamicsParams, daily_cost, steady_state_holding_cost
from test_optimizer_oracle import _exponent, _grid, _level, _tol, curve_sets


def reference_axis_cost(curves, base_cases, scale, t):
    rate = curves.import_multiplier * scale
    return curves.transmission.cost(base_cases + rate * t) + curves.border.cost(scale * t)


def reference_kink_value(curves, scale, q):
    ct = curves.transmission
    return ct.c0 + ct.tti_slope * ct.tti_capacity + curves.border.cost(scale * q)


def reference_aggregate_cost(curves, imports):
    alpha = curves.import_multiplier
    return curves.transmission.cost(alpha * imports) + curves.border.cost(imports)


def reference_total_policy_cost(curves, domestic_cases, imports):
    load = domestic_cases + curves.import_multiplier * imports
    return (curves.transmission.cost(load), curves.border.cost(imports),
            curves.outbreak.cost(load))


def reference_link_breakdown(curves, domestic, threat, screening):
    load = domestic + curves.import_multiplier * threat * screening
    return (curves.transmission.cost(load),
            curves.border.rescaled(1.0).cost(screening),
            curves.outbreak.cost(load))


def reference_daily_cost(curves, cases, r, screening, import_threat, params):
    if not 0.0 <= screening <= 1.0:
        raise DomainError(f"screening must lie in [0, 1], got {screening}")
    if import_threat < 0:
        raise DomainError(f"import threat must be >= 0, got {import_threat}")
    g = params.stringency(r)
    return (curves.transmission.cost(cases) * g
            + curves.border.cost(import_threat * screening)
            + curves.outbreak.cost(cases))


def reference_steady_state_holding_cost(curves, cases, params):
    if cases < 0:
        raise DomainError(f"cases must be >= 0, got {cases}")
    if cases > 0 and not params.r_min <= 1.0 <= params.r0:
        raise DomainError("holding a positive level needs R=1 inside the bounds")
    r_hold = params.r0 if cases == 0 else 1.0
    return (curves.transmission.cost(cases) * params.stringency(r_hold)
            + curves.outbreak.cost(cases))


def outcome(fn, *args):
    """The floats returned, as hex strings (exact, signed zero included), or
    the type and message of the error raised."""
    try:
        got = fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    if isinstance(got, CostBreakdown):
        got = (got.transmission, got.border, got.outbreak)
    elif not isinstance(got, tuple):
        got = (got,)
    return tuple(float(v).hex() for v in got)


@st.composite
def priced_curve_sets(draw):
    """The optimizer oracle's curve sets with an outbreak curve of their own."""
    curves = draw(curve_sets())
    return replace(curves, outbreak=OutbreakCost(draw(_level), draw(_exponent)))


_frac = st.floats(-0.1, 1.1)    # a little outside the curves' domains too
_cases = st.floats(-1.0, 30.0) | st.just(0.0)
_breakdowns = settings(max_examples=300, deadline=None, derandomize=True)


@_breakdowns
@given(curves=priced_curve_sets(), base=_cases, scale_frac=st.floats(0.0, 1.0),
       t=_frac)
def test_axis_cost(curves, base, scale_frac, t):
    scale = scale_frac * curves.border.i_free
    rate = curves.import_multiplier * scale
    assert outcome(lambda: curves.breakdown(base + rate * t, scale * t).objective) == \
        outcome(reference_axis_cost, curves, base, scale, t)


@_breakdowns
@given(curves=priced_curve_sets(), scale_frac=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
def test_kink_value_at_the_breakdown_load(curves, scale_frac, q):
    if not math.isfinite(curves.transmission.tti_capacity):
        curves = replace(curves, transmission=replace(curves.transmission, tti_capacity=1.0))
    cap = curves.transmission.tti_capacity
    scale = scale_frac * curves.border.i_free
    assert outcome(lambda: curves.breakdown(cap, scale * q).objective) == \
        outcome(reference_kink_value, curves, scale, q)


@_breakdowns
@given(curves=priced_curve_sets(), frac=_frac)
def test_aggregate_cost(curves, frac):
    imports = frac * curves.border.i_free
    assert outcome(aggregate_cost, curves, imports) == \
        outcome(reference_aggregate_cost, curves, imports)


@_breakdowns
@given(curves=priced_curve_sets(), domestic=_cases, frac=_frac)
def test_total_policy_cost(curves, domestic, frac):
    imports = frac * curves.border.i_free
    assert outcome(total_policy_cost, curves, domestic, imports) == \
        outcome(reference_total_policy_cost, curves, domestic, imports)


@_breakdowns
@given(curves=priced_curve_sets(), domestic=_cases, threat=st.floats(0.0, 50.0),
       screening=_frac)
def test_game_decision_costs(curves, domestic, threat, screening):
    region = RegionState("A", 1000, 0.0, 0.0, curves)

    def decision_costs():
        return _decision(region, domestic, threat, screening, "interior").costs

    assert outcome(decision_costs) == \
        outcome(reference_link_breakdown, curves, domestic, threat, screening)


_params = st.builds(DynamicsParams, r0=st.floats(1.5, 3.0), r_min=st.floats(0.0, 1.2),
                    stringency_exponent=st.floats(0.5, 2.0))


@_breakdowns
@given(curves=priced_curve_sets(), cases=_cases, r=st.floats(-0.1, 3.1),
       screening=_frac, threat_frac=st.floats(-0.1, 1.1), params=_params)
def test_daily_cost(curves, cases, r, screening, threat_frac, params):
    args = (curves, cases, r, screening, threat_frac * curves.border.i_free, params)
    assert outcome(daily_cost, *args) == outcome(reference_daily_cost, *args)


@_breakdowns
@given(curves=priced_curve_sets(), cases=_cases, params=_params)
def test_steady_state_holding_cost(curves, cases, params):
    args = (curves, cases, params)
    assert outcome(steady_state_holding_cost, *args) == \
        outcome(reference_steady_state_holding_cost, *args)


# minimize_over_imports reported 4.275365003037039 at 3.0567820984580907 before
# the kink snap costed its argument: alpha times that argument passes the
# breakdown point by one ulp, where the objective is 5.9657316482781475
PINNED = CostCurveSet(
    TransmissionCost(1.9198495120593568, 0.45718690521726923, 3.541592468285668,
                     1.6903666452411088, 1.8085925719326759, 1.2776842742537626),
    BorderCost(6.773723653756998, 5.836808589014917, 2.9918234452500285),
    OutbreakCost(0.5679702705601001, 2.178974912444901),
    import_multiplier=1.1586015470556854)


def test_pinned_kink_snap_costs_its_argument():
    assert aggregate_cost(PINNED, 3.0567820984580907) == 5.9657316482781475
    res = minimize_over_imports(PINNED)
    assert res.argument == math.nextafter(3.0567820984580907, 0.0)
    assert res.cost == aggregate_cost(PINNED, res.argument) == 4.275365003037039


def same_float(a, b):
    return float(a).hex() == float(b).hex()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(curves=curve_sets(), grid_points=_grid, foc_tol=_tol)
@example(curves=PINNED, grid_points=10_000, foc_tol=1e-6)
def test_imports_cost_is_the_objective_at_the_argument(curves, grid_points, foc_tol):
    res = minimize_over_imports(curves, grid_points, foc_tol)
    assert same_float(res.cost, aggregate_cost(curves, res.argument))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(curves=curve_sets(), threat_frac=st.floats(0.0, 1.0),
       domestic=st.floats(0.0, 30.0) | st.just(0.0), grid_points=_grid, foc_tol=_tol)
def test_screening_cost_is_the_objective_at_the_argument(curves, threat_frac, domestic,
                                                         grid_points, foc_tol):
    threat = threat_frac * curves.border.i_free
    res = minimize_over_screening(curves, threat, domestic, grid_points, foc_tol)
    f = res.argument
    load = domestic + curves.import_multiplier * threat * f
    assert same_float(res.cost, curves.breakdown(load, threat * f).objective)
