"""Single-region cost minimization over import level or screening factor.

The solver is a deterministic grid bracket followed by golden-section
refinement, both in scalar code on the curves' ``cost`` (no numpy). The
grid's winner is found by a branch and bound that costs a fraction of its
points and returns the point a full scan would. Derivative-based root
finding is avoided because the transmission curve may carry a kink (and a
level jump) at its breakdown point. Results are classified as interior or
pinned to a boundary via one-sided marginals, mirroring the
first-order-condition cases: fully open when accepting all imports is
cheaper at the margin, fully closed when the first import already costs
more than it saves; ``closure_condition`` is that last case alone.
"""

import math

from ._record import Record
from .costs import CostCurveSet
from .errors import DomainError, InvariantViolation, NumericalFailure

GRID_POINTS = 10_000
FOC_TOL = 1e-6
WIDTH_FRAC = 1e-8
TIE_TOL = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

INTERIOR = "interior"
BOUNDARY_CLOSED = "boundary-closed"
BOUNDARY_OPEN = "boundary-open"


class OptimizationResult(Record):
    """Minimizer over one policy axis with its first-order classification."""

    variable: str            # "imports" or "screening"
    argument: float
    cost: float
    classification: str
    foc_residual: float


class ClosureConditionReport(Record):
    """Evaluation of the full-closure (F=0) optimality condition."""

    transmission_marginal: float
    border_saving: float
    holds: bool


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


# the grid search costs blocks of at most _LEAF points point by point, and
# prunes a block whose lower bound times _PRUNE exceeds its threshold
_LEAF = 8
_PRUNE = 1.0 - 2.0 ** -49


def _grid_index(load_cost, border_cost, n: int) -> int | None:
    """The full grid scan's winner, from a fraction of the grid's costs.

    Grid point i costs ``f(i) = load_cost(i) + border_cost(i)``, where
    ``load_cost`` never decreases and ``border_cost`` never increases in i.
    The full scan's winner is the first i with ``f(i) <= min(f) * (1 +
    TIE_TOL)``; this returns the same index, or None where the full scan
    would meet a cost that is not finite.

    The search is a branch and bound (Land & Doig 1960) over blocks of
    indices [a, b], halved until a block holds at most ``_LEAF`` points.
    ``load_cost(a) + border_cost(b)`` bounds every cost in the block from
    below, with no convexity needed, so a block whose bound exceeds a
    threshold holds no point at or under it. Float rounding keeps both
    parts monotone except where they raise to a non-integer power: libm's
    ``pow`` is accurate to under 1 ulp (glibc) but not proven monotone. A
    bound is therefore scaled by ``_PRUNE``, 8 ulps under 1, before it is
    compared, which covers an error of a few ulps in each part. Two depth
    first passes each hold one block per level of the halving:

    - the first finds ``min(f)``, visiting the child with the lower bound
      first and pruning against the least cost seen so far;
    - the second walks the blocks left to right, pruning against the tie
      band, and stops at the first point within it.

    Where the cost is flat within ``TIE_TOL`` nothing is pruned: the first
    pass costs every point, and each of its at most 2n / ``_LEAF`` halvings
    (a leaf holds at least ``_LEAF`` / 2 points) costs one point's two
    parts more, so about (1 + 2 / _LEAF) n of each part in all.

    The grid's costs are all finite when ``load_cost(0)`` (nan where an
    infinite rate meets the point 0) and ``load_cost(n - 1) +
    border_cost(0)``, which is at least every cost, are; otherwise every
    point is costed until one is not finite.
    """
    t_first, t_last = load_cost(0), load_cost(n - 1)
    b_first, b_last = border_cost(0), border_cost(n - 1)
    if (not (math.isfinite(t_first) and math.isfinite(t_last + b_first))
            and not all(math.isfinite(load_cost(i) + border_cost(i)) for i in range(n))):
        return None

    least = min(t_first + b_first, t_last + b_last)
    blocks = [(0, n - 1, t_first, b_last)]   # (a, b, load_cost(a), border_cost(b))
    while blocks:
        a, b, t_a, b_b = blocks.pop()
        if (t_a + b_b) * _PRUNE >= least:
            continue
        if b - a < _LEAF:
            least = min(least, *[load_cost(i) + border_cost(i) for i in range(a, b + 1)])
            continue
        m = (a + b) // 2
        b_m, t_m = border_cost(m), load_cost(m + 1)
        left, right = (a, m, t_a, b_m), (m + 1, b, t_m, b_b)
        blocks += (right, left) if t_a + b_m <= t_m + b_b else (left, right)

    band = least * (1.0 + TIE_TOL)
    blocks = [(0, n - 1, t_first, b_last)]
    while blocks:
        a, b, t_a, b_b = blocks.pop()
        if (t_a + b_b) * _PRUNE > band:
            continue
        if b - a < _LEAF:
            hit = next((i for i in range(a, b + 1)
                        if load_cost(i) + border_cost(i) <= band), None)
            if hit is not None:
                return hit
            continue
        m = (a + b) // 2
        blocks += ((m + 1, b, load_cost(m + 1), b_b), (a, m, t_a, border_cost(m)))
    raise InvariantViolation("the least grid cost lies outside its own tie band")


def _minimize_on_axis(variable: str, curves: CostCurveSet, base_cases: float,
                      scale: float, hi: float, grid_points: int,
                      foc_tol: float) -> OptimizationResult:
    """Minimize transmission-plus-border cost along a policy axis t in [0, hi].

    At axis point t the case load is ``base_cases + alpha * scale * t`` and
    the border curve is evaluated at ``scale * t``; the objective is
    ``ct.cost(load) + cb.cost(scale * t)``, which is
    ``curves.breakdown(load, scale * t).objective``. The grid (through
    ``_grid_index``) and the golden section both evaluate it in scalar
    code. A grid bracket is
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
    # hi last; _grid_index finds the full scan's winner among them
    lo = 0.0
    step = (hi - lo) / max(grid_points - 1, 1)
    last = grid_points - 1 if grid_points > 1 else -1

    def point(i):
        return hi if i == last else i * step

    # the grid's two parts, with point(i) written out: they run per point
    idx = _grid_index(lambda i: ct.cost(base_cases + rate * (hi if i == last else i * step)),
                      lambda i: cb.cost(scale * (hi if i == last else i * step)), grid_points)
    if idx is None:
        raise NumericalFailure(
            f"non-finite cost while minimizing over {variable} on [{lo}, {hi}]")

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

    # an end costing as little, within the tie band, is tested too: a flat
    # cost can leave the golden section short of the end it slopes down to
    band = f_star * (1.0 + TIE_TOL)
    if x_star <= lo + width or cost(lo) <= band:
        m = marginal(lo, "right")
        if m > foc_tol:
            return OptimizationResult(variable, lo, cost(lo), BOUNDARY_CLOSED, m)
    if x_star >= hi - width or cost(hi) <= band:
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

    Job: the oracle for ``minimize_over_imports``'s reported cost in
    ``tests/test_breakdown.py``.
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


def closure_condition(curves: CostCurveSet, import_threat: float) -> ClosureConditionReport:
    """Whether full closure (F=0) is optimal: the marginal transmission cost
    of the first imports exceeds the marginal border saving at F=0, for the
    curves ``minimize_over_screening`` takes (in the game, the border
    rescaled to the threat).

    Job: the uncoordinated-imports claim in ``tests/test_paper_claims.py``.
    """
    if import_threat < 0:
        raise DomainError(f"import threat must be >= 0, got {import_threat}")
    dct = curves.import_multiplier * import_threat * curves.transmission.marginal(0.0, "right")
    saving = -import_threat * curves.border.marginal(0.0)
    return ClosureConditionReport(transmission_marginal=dct, border_saving=saving,
                                  holds=dct > saving)
