"""Single-region cost minimization over import level or screening factor.

The solver is a deterministic coarse grid bracket followed by golden-section
refinement, both in scalar code on the curves' ``cost`` (no numpy);
derivative-based root finding is avoided because the transmission curve
may carry a kink (and a level jump) at its breakdown point. Results are
classified as interior or pinned to a boundary via one-sided marginals,
mirroring the first-order-condition cases: fully open when accepting all
imports is cheaper at the margin, fully closed when the first import
already costs more than it saves.
"""

import math
from array import array
from dataclasses import dataclass

from .costs import CostBreakdown, CostCurveSet
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
    the border curve is evaluated at ``scale * t``; the objective is
    ``ct.cost(load) + cb.cost(scale * t)``, which is
    ``curves.breakdown(load, scale * t).objective``. The grid and the
    golden section both evaluate it in scalar code. A grid bracket is
    refined by golden section, then classified as interior or pinned to a
    boundary by the one-sided marginals (+inf right of a level jump). The
    grid winner is re-costed by the objective before it is compared with
    the golden-section point, so the reported cost is always the objective
    at the reported argument. A refined argument next to the breakdown kink
    snaps onto the kink when the objective there is at least as good: the
    kink point (cap - base_cases) / rate is stepped down by ulps until its
    load no longer passes the breakdown point, so it is costed on the
    per-case branch, and the generalized first-order condition (zero inside
    the subgradient interval) is evaluated there. Grid ties within a
    relative TIE_TOL of the least cost resolve to the smallest argument;
    the tolerance is relative so that the choice does not depend on the
    unit of cost.
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

    # the grid points are np.linspace(lo, hi, grid_points)'s: i * step, and
    # hi last; their costs are held in one array of doubles, 8 bytes a point
    lo = 0.0
    step = (hi - lo) / max(grid_points - 1, 1)

    def point(i):
        return hi if i == grid_points - 1 > 0 else i * step

    fs = array("d", [0.0]) * grid_points
    for i in range(grid_points - 1):
        fs[i] = cost(i * step)
    fs[-1] = cost(point(grid_points - 1))
    if not all(map(math.isfinite, fs)):
        raise NumericalFailure(
            f"non-finite cost while minimizing over {variable} on [{lo}, {hi}]")
    least = min(fs) * (1.0 + TIE_TOL)
    idx = next(i for i, f in enumerate(fs) if f <= least)

    width = WIDTH_FRAC * (hi - lo)
    x_star, f_star = golden_section(
        cost, point(max(idx - 1, 0)), point(min(idx + 1, grid_points - 1)), width)
    x_grid = point(idx)
    f_grid = cost(x_grid)
    if f_grid <= f_star:
        # ties prefer the grid point, which already resolved to the smallest argument
        x_star, f_star = x_grid, f_grid

    snap = max(width, 2.0 * point(1) if grid_points > 1 else width)
    if math.isfinite(cap) and rate > 0:
        q = (cap - base_cases) / rate
        if lo < q < hi and abs(x_star - q) <= snap:
            while base_cases + rate * q > cap:
                q = math.nextafter(q, -math.inf)
            f_kink = cost(q)
            if f_kink <= f_star:
                x_star, f_star = q, f_kink

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
    return curves.breakdown(curves.import_multiplier * imports, imports).objective


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
    return curves.breakdown(domestic_cases + curves.import_multiplier * imports, imports)
