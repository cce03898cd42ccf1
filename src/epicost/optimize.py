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


def _minimize_on_axis(variable: str, curves: CostCurveSet, base_cases: float,
                      scale: float, hi: float, grid_points: int,
                      foc_tol: float) -> OptimizationResult:
    """Minimize transmission-plus-border cost along a policy axis t in [0, hi].

    At axis point t the case load is ``base_cases + alpha * scale * t`` and
    the border curve is evaluated at ``scale * t``. A grid bracket is refined
    by golden section, then classified as interior or pinned to a boundary
    by the one-sided marginals (+inf right of a level jump). A refined
    argument next to the breakdown kink snaps onto it when the kink's
    left-limit value is at least as good, so the generalized first-order
    condition (zero inside the subgradient interval) is evaluated exactly
    there. Grid ties within a relative TIE_TOL of the least cost resolve to
    the smallest argument; the tolerance is relative so that the choice does
    not depend on the unit of cost.
    """
    ct, cb = curves.transmission, curves.border
    cap = ct.tti_capacity
    rate = curves.import_multiplier * scale

    def cost(t):
        return ct.cost(base_cases + rate * t) + cb.cost(scale * t)

    def marginal(t, side):
        load = base_cases + rate * t
        if math.isfinite(cap) and cap > 0 and abs(load - cap) <= 8 * math.ulp(max(1.0, cap)):
            load = cap  # float rounding left the load an ulp off the breakdown point
        return rate * ct.marginal(load, side) + scale * cb.marginal(scale * t)

    lo = 0.0
    xs = np.linspace(lo, hi, grid_points)
    fs = _kernels.policy_cost_grid(xs, base_cases, scale, curves)
    if not np.all(np.isfinite(fs)):
        raise NumericalFailure(
            f"non-finite cost while minimizing over {variable} on [{lo}, {hi}]")
    idx = int(np.nonzero(fs <= fs.min() * (1.0 + TIE_TOL))[0][0])

    width = WIDTH_FRAC * (hi - lo)
    x_star, f_star = golden_section(
        cost, xs[max(idx - 1, 0)], xs[min(idx + 1, grid_points - 1)], width)
    if fs[idx] <= f_star:
        # ties prefer the grid point, which already resolved to the smallest argument
        x_star, f_star = float(xs[idx]), float(fs[idx])

    snap = max(width, 2.0 * (xs[1] - xs[0]) if grid_points > 1 else width)
    if math.isfinite(cap) and rate > 0:
        q = (cap - base_cases) / rate
        if lo < q < hi and abs(x_star - q) <= snap:
            left_limit = ct.c0 + ct.tti_slope * cap + cb.cost(scale * q)
            if left_limit <= f_star:
                x_star, f_star = float(q), float(left_limit)

    if x_star <= lo + width:
        m = marginal(lo, "right")
        if m > foc_tol:
            return OptimizationResult(variable, lo, cost(lo), BOUNDARY_CLOSED, m)
    if x_star >= hi - width:
        m = marginal(hi, "left")
        if m < -foc_tol:
            return OptimizationResult(variable, hi, cost(hi), BOUNDARY_OPEN, m)

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


def minimize_over_imports(curves: CostCurveSet,
                          grid_points: int = GRID_POINTS,
                          foc_tol: float = FOC_TOL) -> OptimizationResult:
    """Minimize the aggregate cost over the import level in [0, i_free]."""
    return _minimize_on_axis("imports", curves, 0.0, 1.0, curves.border.i_free,
                             grid_points, foc_tol)


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
    return _minimize_on_axis("screening", curves, domestic_cases, import_threat,
                             1.0, grid_points, foc_tol)


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
