"""Single-region cost minimization over import level or screening factor.

The solver is a deterministic coarse grid bracket followed by golden-section
refinement; derivative-based root finding is avoided because the
transmission curve may carry a kink (and a level jump) at its breakdown
point. Results are classified as interior or pinned to a boundary via
one-sided marginals, mirroring the first-order-condition cases: fully open
when accepting all imports is cheaper at the margin, fully closed when the
first import already costs more than it saves.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .costs import CostCurveSet
from .errors import DomainError, NumericalFailure

GRID_POINTS = 10_000
FOC_TOL = 1e-6
WIDTH_FRAC = 1e-8
TIE_TOL = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

INTERIOR = "interior"
BOUNDARY_CLOSED = "boundary-closed"
BOUNDARY_OPEN = "boundary-open"


@dataclass(frozen=True)
class OptimizationResult:
    """Minimizer over one policy axis with its first-order classification."""

    variable: str            # "imports" or "screening"
    argument: float
    cost: float
    classification: str
    foc_residual: float

    @property
    def is_interior(self) -> bool:
        return self.classification == INTERIOR


@dataclass(frozen=True)
class CostBreakdown:
    """Cost components at a policy point.

    ``total`` sums all three components (realized outbreak burden included);
    ``net_total`` is the alternate accounting ``transmission + border -
    outbreak`` where the outbreak term enters as an averted-cost offset.
    """

    transmission: float
    border: float
    outbreak: float

    @property
    def total(self) -> float:
        return self.transmission + self.border + self.outbreak

    @property
    def net_total(self) -> float:
        return self.transmission + self.border - self.outbreak


@dataclass(frozen=True)
class ClosureConditionReport:
    """Evaluation of the full-closure (F=0) optimality condition.

    ``refund`` is the part of the readiness baseline returned when borders
    are fully closed (preparedness can be wound down at zero cases); the
    refunded variant adds it to the marginal transmission side of the
    inequality. ``refund=0`` reduces to the standard condition.
    """

    transmission_marginal: float
    border_saving: float
    refund: float
    holds_standard: bool
    holds_with_refund: bool


def golden_section(fn, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Deterministic golden-section minimization to a bracket of given width."""
    a, b = lo, hi
    h = b - a
    if h <= width:
        mid = 0.5 * (a + b)
        return mid, fn(mid)
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = fn(c), fn(d)
    n = int(math.ceil(math.log(width / h) / math.log(_INVPHI)))
    for _ in range(n):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


def _minimize_on_interval(variable, fn_scalar, fn_grid, marginal, lo, hi,
                          grid_points, foc_tol, kinks=()) -> OptimizationResult:
    """Grid bracket + golden refinement + boundary/interior classification.

    ``marginal(t, side)`` must return the one-sided objective derivative
    (+inf right of a level jump). ``kinks`` are ``(axis_point,
    left_limit_value)`` pairs for interior points where the objective is
    non-smooth; a refined argument landing next to one whose left-limit
    value is at least as good is snapped onto it, so the generalized
    first-order condition (zero inside the subgradient interval) is
    evaluated exactly at the kink. Grid ties within a relative TIE_TOL of
    the least cost resolve to the smallest argument; the tolerance is
    relative so that the choice does not depend on the unit of cost.
    """
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
        # ties prefer the grid point, which already resolved to the smallest argument
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


def aggregate_cost(curves: CostCurveSet, imports: float) -> float:
    """Minimal policy cost at import level I with domestic cases held at zero.

    Equals transmission cost of the multiplied import load plus border cost:
    the inner minimization over domestic cases sits at zero because
    transmission cost increases with cases.
    """
    alpha = curves.import_multiplier
    return curves.transmission.cost(alpha * imports) + curves.border.cost(imports)


def _snap_load_to_kink(load: float, cap: float) -> float:
    """Land exactly on the breakdown point when float rounding left us an ulp off."""
    if math.isfinite(cap) and cap > 0 and abs(load - cap) <= 8 * math.ulp(max(1.0, cap)):
        return cap
    return load


def _aggregate_marginal(curves: CostCurveSet, imports: float, side: str) -> float:
    alpha = curves.import_multiplier
    load = _snap_load_to_kink(alpha * imports, curves.transmission.tti_capacity)
    return (alpha * curves.transmission.marginal(load, side)
            + curves.border.marginal(imports))


def _transmission_kink(curves: CostCurveSet, base_cases: float,
                       axis_scale: float, hi: float):
    """Axis point where the case load crosses the breakdown capacity.

    Returns ``[(point, left_limit_value_of_transmission_term)]`` or [];
    the caller adds its border term to the left limit.
    """
    ct = curves.transmission
    cap = ct.tti_capacity
    if not math.isfinite(cap) or axis_scale <= 0:
        return []
    q = (cap - base_cases) / axis_scale
    if not 0.0 < q < hi:
        return []
    return [(q, ct.c0 + ct.tti_slope * cap)]


def minimize_over_imports(curves: CostCurveSet,
                          grid_points: int = GRID_POINTS,
                          foc_tol: float = FOC_TOL) -> OptimizationResult:
    """Minimize the aggregate cost over the import level in [0, i_free]."""
    hi = curves.border.i_free
    alpha = curves.import_multiplier

    def fn_grid(ts):
        return _kernels.policy_cost_grid(ts, 0.0, 1.0, alpha,
                                         *curves.transmission.params,
                                         *curves.border.params)

    kinks = [(q, ct_left + curves.border.cost(q))
             for q, ct_left in _transmission_kink(curves, 0.0, alpha, hi)]
    return _minimize_on_interval(
        "imports",
        lambda i: aggregate_cost(curves, i),
        fn_grid,
        lambda i, side: _aggregate_marginal(curves, i, side),
        0.0, hi, grid_points, foc_tol, kinks=kinks)


def minimize_over_screening(curves: CostCurveSet, import_threat: float,
                            domestic_cases: float = 0.0,
                            grid_points: int = GRID_POINTS,
                            foc_tol: float = FOC_TOL) -> OptimizationResult:
    """Minimize transmission-plus-border cost over the screening factor F.

    Imports entering at level ``import_threat * F`` add
    ``alpha * import_threat * F`` to the case load on top of
    ``domestic_cases``. The unscreened level must stay inside the border
    curve's domain (``import_threat <= i_free``).
    """
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

    def fn_grid(fs):
        return _kernels.policy_cost_grid(fs, domestic_cases, import_threat, alpha,
                                         *ct.params, *cb.params)

    def marginal(f, side):
        load = _snap_load_to_kink(domestic_cases + alpha * import_threat * f,
                                  ct.tti_capacity)
        return (alpha * import_threat * ct.marginal(load, side)
                + import_threat * cb.marginal(import_threat * f))

    kinks = [(q, ct_left + cb.cost(import_threat * q))
             for q, ct_left in _transmission_kink(curves, domestic_cases,
                                                  alpha * import_threat, 1.0)]
    return _minimize_on_interval("screening", fn, fn_grid, marginal,
                                 0.0, 1.0, grid_points, foc_tol, kinks=kinks)


def closure_condition_with_refund(curves: CostCurveSet, import_threat: float,
                                  refund: float = 0.0) -> ClosureConditionReport:
    """Check whether full closure (F=0) is optimal, with a readiness refund.

    Standard condition: marginal transmission cost of the first imports
    exceeds the marginal border saving at F=0. The refunded variant credits
    ``refund`` (at most the readiness baseline c0, recovered by closing
    completely) to the transmission side.
    """
    if import_threat < 0:
        raise DomainError(f"import threat must be >= 0, got {import_threat}")
    c0 = curves.transmission.c0
    if not 0 <= refund <= c0:
        raise DomainError(f"refund must lie in [0, {c0}], got {refund}")
    alpha = curves.import_multiplier
    dct = alpha * import_threat * curves.transmission.marginal(0.0, "right")
    dcb = import_threat * curves.border.marginal(0.0)
    saving = -dcb
    return ClosureConditionReport(
        transmission_marginal=dct,
        border_saving=saving,
        refund=refund,
        holds_standard=dct > saving,
        holds_with_refund=refund + dct > saving,
    )


def total_policy_cost(curves: CostCurveSet, domestic_cases: float,
                      imports: float) -> CostBreakdown:
    """Cost components with case load ``domestic_cases + alpha * imports``."""
    alpha = curves.import_multiplier
    load = domestic_cases + alpha * imports
    return CostBreakdown(
        transmission=curves.transmission.cost(load),
        border=curves.border.cost(imports),
        outbreak=curves.outbreak.cost(load),
    )
