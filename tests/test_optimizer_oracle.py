"""The one-axis minimiser against the two callback-driven optimizers it replaced.

``reference_minimize_over_imports`` and ``reference_minimize_over_screening``
keep the earlier code: each builds its own scalar objective, marginal and
kink list and hands them to a generic interval minimiser, which costs its
grid with numpy (``reference_cost_grid``, the array kernel the optimizer
used before its grid became scalar code). The new solvers must return the
same ``OptimizationResult`` bit for bit, with every numeric field a Python
``float`` (the reference's fields are mapped through ``float()``: its grid
points are numpy scalars), or raise the same error.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicost.costs import BorderCost, CostCurveSet, OutbreakCost, TransmissionCost
from epicost.errors import DomainError, NumericalFailure
from epicost.optimize import (BOUNDARY_CLOSED, BOUNDARY_OPEN, INTERIOR, TIE_TOL,
                              WIDTH_FRAC, OptimizationResult, aggregate_cost,
                              golden_section, minimize_over_imports,
                              minimize_over_screening)


def reference_cost_grid(t, base_cases, import_scale, curves):
    """Transmission-plus-border cost on the numpy grid ``t``, with the case
    load ``base_cases + alpha * import_scale * t`` and the border curve at
    ``import_scale * t``."""
    cases = base_cases + curves.import_multiplier * import_scale * t
    cb = curves.border
    slack = np.maximum(1.0 - import_scale * t / cb.i_free, 0.0)
    return curves.transmission.cost_arr(cases) + cb.b0 * slack**cb.curvature


def reference_minimize_on_interval(variable, fn_scalar, fn_grid, marginal, lo, hi,
                                   grid_points, foc_tol, kinks=()):
    xs = np.linspace(lo, hi, grid_points)
    fs = fn_grid(xs)
    if not np.all(np.isfinite(fs)):
        raise NumericalFailure(
            f"non-finite cost while minimizing over {variable} on [{lo}, {hi}]")
    idx = int(np.nonzero(fs <= fs.min() * (1.0 + TIE_TOL))[0][0])

    width = WIDTH_FRAC * (hi - lo)
    x_star, f_star = golden_section(
        fn_scalar, xs[max(idx - 1, 0)], xs[min(idx + 1, grid_points - 1)], width)
    if fs[idx] <= f_star:
        x_star, f_star = float(xs[idx]), float(fs[idx])

    snap = max(width, 2.0 * (xs[1] - xs[0]) if grid_points > 1 else width)
    for q, left_limit in kinks:
        if lo < q < hi and abs(x_star - q) <= snap and left_limit <= f_star:
            x_star, f_star = float(q), float(left_limit)
            break

    if x_star <= lo + width:
        m = marginal(lo, "right")
        if m > foc_tol:
            return OptimizationResult(variable, lo, fn_scalar(lo), BOUNDARY_CLOSED, m)
    if x_star >= hi - width:
        m = marginal(hi, "left")
        if m < -foc_tol:
            return OptimizationResult(variable, hi, fn_scalar(hi), BOUNDARY_OPEN, m)

    ml = marginal(x_star, "left")
    mr = marginal(x_star, "right")
    if ml <= 0.0 <= mr:
        residual = 0.0
    else:
        residual = ml if abs(ml) < abs(mr) else mr
    return OptimizationResult(variable, float(x_star), float(f_star), INTERIOR, residual)


def reference_snap_load_to_kink(load, cap):
    if math.isfinite(cap) and cap > 0 and abs(load - cap) <= 8 * math.ulp(max(1.0, cap)):
        return cap
    return load


def reference_transmission_kink(curves, base_cases, axis_scale, hi):
    ct = curves.transmission
    cap = ct.tti_capacity
    if not math.isfinite(cap) or axis_scale <= 0:
        return []
    q = (cap - base_cases) / axis_scale
    if not 0.0 < q < hi:
        return []
    return [(q, ct.c0 + ct.tti_slope * cap)]


def reference_minimize_over_imports(curves, grid_points, foc_tol):
    hi = curves.border.i_free
    alpha = curves.import_multiplier

    def marginal(i, side):
        load = reference_snap_load_to_kink(alpha * i, curves.transmission.tti_capacity)
        return (alpha * curves.transmission.marginal(load, side)
                + curves.border.marginal(i))

    kinks = [(q, ct_left + curves.border.cost(q))
             for q, ct_left in reference_transmission_kink(curves, 0.0, alpha, hi)]
    return reference_minimize_on_interval(
        "imports", lambda i: aggregate_cost(curves, i),
        lambda ts: reference_cost_grid(ts, 0.0, 1.0, curves),
        marginal, 0.0, hi, grid_points, foc_tol, kinks=kinks)


def reference_minimize_over_screening(curves, import_threat, domestic_cases,
                                      grid_points, foc_tol):
    if import_threat < 0:
        raise DomainError(f"import threat must be >= 0, got {import_threat}")
    if domestic_cases < 0:
        raise DomainError(f"domestic cases must be >= 0, got {domestic_cases}")
    if import_threat > curves.border.i_free:
        raise DomainError(
            f"unscreened imports {import_threat} exceed the border-cost domain "
            f"[0, {curves.border.i_free}]")
    alpha = curves.import_multiplier
    ct, cb = curves.transmission, curves.border

    def fn(f):
        return ct.cost(domestic_cases + alpha * import_threat * f) + cb.cost(import_threat * f)

    def marginal(f, side):
        load = reference_snap_load_to_kink(domestic_cases + alpha * import_threat * f,
                                           ct.tti_capacity)
        return (alpha * import_threat * ct.marginal(load, side)
                + import_threat * cb.marginal(import_threat * f))

    kinks = [(q, ct_left + cb.cost(import_threat * q))
             for q, ct_left in reference_transmission_kink(curves, domestic_cases,
                                                           alpha * import_threat, 1.0)]
    return reference_minimize_on_interval(
        "screening", fn,
        lambda fs: reference_cost_grid(fs, domestic_cases, import_threat, curves),
        marginal, 0.0, 1.0, grid_points, foc_tol, kinks=kinks)


def outcome(fn, *args):
    """``repr`` of the result (exact for floats, NaN and signed zero included),
    or the type and message of the error raised."""
    try:
        return repr(fn(*args))
    except (DomainError, NumericalFailure) as exc:
        return type(exc), str(exc)


def as_floats(solver):
    """A reference solver whose result has its numeric fields as ``float``."""
    def solve(*args):
        res = solver(*args)
        return res._replace(argument=float(res.argument), cost=float(res.cost),
                            foc_residual=float(res.foc_residual))
    return solve


_level = st.floats(0.0, 5.0)
_exponent = st.sampled_from([1.0, 2.0]) | st.floats(1.0, 3.0)
_grid = st.sampled_from([3, 4, 17, 101, 2000])
_tol = st.sampled_from([1e-6, 1e-3, 1.0])


@st.composite
def curve_sets(draw):
    ct = TransmissionCost(
        c0=draw(_level), tti_slope=draw(_level),
        tti_capacity=draw(st.sampled_from([0.0, math.inf]) | st.floats(0.05, 20.0)),
        breakdown_jump=draw(st.just(0.0) | _level),
        wide_slope=draw(_level), wide_exponent=draw(_exponent))
    cb = BorderCost(b0=draw(_level), i_free=draw(st.floats(0.1, 10.0)),
                    curvature=draw(_exponent))
    return CostCurveSet(ct, cb, OutbreakCost(),
                        import_multiplier=draw(st.floats(1.0, 3.0)))


def kinked(jump):
    # aggregate cost falls at 0.1 - 0.5 per import up to the breakdown at
    # I = 1, then rises at 3 - 0.5: the minimum sits on the kink, with or
    # without a jump
    return CostCurveSet(
        TransmissionCost(c0=1.0, tti_slope=0.1, tti_capacity=1.0,
                         breakdown_jump=jump, wide_slope=3.0, wide_exponent=1.0),
        BorderCost(b0=2.0, i_free=4.0, curvature=1.0))


_oracle = settings(max_examples=200, deadline=None, derandomize=True)


@_oracle
@given(curves=curve_sets(), grid_points=_grid, foc_tol=_tol)
@example(curves=kinked(0.0), grid_points=100, foc_tol=1e-6)
@example(curves=kinked(2.0), grid_points=100, foc_tol=1e-6)
def test_imports_match_reference(curves, grid_points, foc_tol):
    args = (curves, grid_points, foc_tol)
    assert outcome(minimize_over_imports, *args) == \
        outcome(as_floats(reference_minimize_over_imports), *args)


@_oracle
@given(curves=curve_sets(), threat_frac=st.floats(-0.2, 1.2),
       domestic=st.floats(-1.0, 30.0) | st.just(0.0),
       grid_points=_grid, foc_tol=_tol)
@example(curves=kinked(0.0), threat_frac=0.5, domestic=0.0, grid_points=100,
         foc_tol=1e-6)
@example(curves=kinked(2.0), threat_frac=0.5, domestic=0.0, grid_points=100,
         foc_tol=1e-6)
@example(curves=kinked(2.0), threat_frac=-0.1, domestic=0.0, grid_points=100,
         foc_tol=1e-6)
@example(curves=kinked(2.0), threat_frac=1.1, domestic=0.0, grid_points=100,
         foc_tol=1e-6)
@example(curves=kinked(2.0), threat_frac=0.5, domestic=-1.0, grid_points=100,
         foc_tol=1e-6)
def test_screening_matches_reference(curves, threat_frac, domestic, grid_points, foc_tol):
    threat = threat_frac * curves.border.i_free
    args = (curves, threat, domestic, grid_points, foc_tol)
    assert outcome(minimize_over_screening, *args) == \
        outcome(as_floats(reference_minimize_over_screening), *args)


def test_kink_examples_land_on_the_kink():
    # 100 grid points miss the kinks at I = 1 and F = 0.5, so only the kink
    # snap lands exactly on them: the examples above exercise it
    for jump in (0.0, 2.0):
        res = minimize_over_imports(kinked(jump), grid_points=100)
        assert res.argument == 1.0 and res.classification == INTERIOR
        res = minimize_over_screening(kinked(jump), 2.0, 0.0, grid_points=100)
        assert res.argument == 0.5 and res.classification == INTERIOR


def test_errors_are_compared():
    # a threat above i_free raises DomainError on both sides, with one message
    got = outcome(minimize_over_screening, kinked(0.0), 5.0, 0.0, 100, 1e-6)
    assert got[0] is DomainError
    assert got == outcome(as_floats(reference_minimize_over_screening), kinked(0.0), 5.0,
                          0.0, 100, 1e-6)
