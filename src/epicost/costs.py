"""Parametric cost curves: suppression, border control, and outbreak burden.

Shapes follow the qualitative constraints of the cost-of-policy model:
transmission-suppression cost starts at a positive readiness baseline and
rises with daily cases, cheap per case while test-trace-isolate capacity
holds and steeper (locally convex) past its breakdown point; border cost
falls from a full-closure maximum to zero at the free-travel import level,
convex because the last travelers are the most essential; outbreak burden
starts at zero and grows with cases.

All curves are immutable and evaluations are pure, so concurrent use is
safe. Each curve writes its formula for one point (``cost``); the
transmission and outbreak curves, which the schedule scan costs a day of
many schedules at a time, write it next to that for a numpy array of any
shape (``cost_arr``). The optimizers, the shape gate and ``simulate`` use
``cost`` only, so they import no numpy. Both forms take every power with
the C library's ``pow``: Python's float ``**`` calls it, and so does
numpy's ``float_power``, where numpy's array ``**`` may take a SIMD loop
that differs from it in the last place. So ``cost_arr`` equals ``cost``
bit for bit, and ``_pow`` gives the stringency weight of ``trajectory``
the same ``pow`` for a float or an array. The optimizers' first-order
conditions read the transmission and border curves' ``marginal``; the
outbreak burden is in no objective, so its curve has none.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .errors import DomainError, KinkAmbiguityError

_EPS_REL = 1e-6
# points at which validate_curve_set samples each curve's cost
SHAPE_GRID_POINTS = 1000


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


def _pow(base, exponent: float):
    """``base ** exponent`` with libm's ``pow``, for a float or a numpy
    array (by ``float_power``) alike."""
    if isinstance(base, float):
        return base ** exponent
    import numpy as np

    return np.float_power(base, exponent)


def _power(base: float, exponent: float, coef: float) -> float:
    """``coef * base ** exponent`` for ``base >= 0``: ``inf`` where the power
    overflows, as ``_power_arr`` gives it, and 0 for a zero ``coef``
    whatever the power."""
    if coef == 0:
        return 0.0
    try:
        return coef * float(base) ** exponent
    except OverflowError:
        return math.inf


def _power_arr(base: np.ndarray, exponent: float, coef: float, out=None) -> np.ndarray:
    """``_power`` elementwise, into ``out`` (which may be ``base``) or a
    new array; numpy warns where the power overflows."""
    import numpy as np

    if coef == 0:
        out = np.empty_like(base, dtype=np.float64) if out is None else out
        out[...] = 0.0
        return out
    out = np.float_power(base, exponent, out=out)
    out *= coef
    return out


def _finite(v: float, name: str, allow_inf: bool = False):
    if math.isnan(v) or (not allow_inf and math.isinf(v)):
        raise DomainError(f"{name} must be finite, got {v}")


class TransmissionCost(Record):
    """Daily cost of holding domestic transmission at x new cases per day.

    Linear at slope ``tti_slope`` up to ``tti_capacity`` (per-case control),
    then jumps by ``breakdown_jump`` and grows as
    ``wide_slope * (x - tti_capacity) ** wide_exponent`` (society-wide
    measures). ``tti_capacity`` may be 0 (wide regime from the start) or
    ``inf`` (per-case control never breaks down).
    """

    c0: float
    tti_slope: float = 0.0
    tti_capacity: float = math.inf
    breakdown_jump: float = 0.0
    wide_slope: float = 0.0
    wide_exponent: float = 1.0

    def __post_init__(self):
        _finite(self.c0, "c0")
        _finite(self.tti_slope, "tti_slope")
        _finite(self.tti_capacity, "tti_capacity", allow_inf=True)
        _finite(self.breakdown_jump, "breakdown_jump")
        _finite(self.wide_slope, "wide_slope")
        _finite(self.wide_exponent, "wide_exponent")
        _require(self.c0 >= 0, f"c0 must be >= 0, got {self.c0}")
        _require(self.tti_slope >= 0, f"tti_slope must be >= 0, got {self.tti_slope}")
        _require(self.tti_capacity >= 0, f"tti_capacity must be >= 0, got {self.tti_capacity}")
        _require(self.breakdown_jump >= 0, f"breakdown_jump must be >= 0, got {self.breakdown_jump}")
        _require(self.wide_slope >= 0, f"wide_slope must be >= 0, got {self.wide_slope}")
        _require(self.wide_exponent >= 1, f"wide_exponent must be >= 1, got {self.wide_exponent}")

    def cost(self, x: float) -> float:
        if x < 0:
            raise DomainError(f"case level must be >= 0, got {x}")
        if x <= self.tti_capacity:
            return self.c0 + self.tti_slope * x
        return (self.c0 + self.tti_slope * self.tti_capacity + self.breakdown_jump
                + _power(x - self.tti_capacity, self.wide_exponent, self.wide_slope))

    def cost_arr(self, x: np.ndarray) -> np.ndarray:
        """``cost`` elementwise for a float64 load of any shape, or a float,
        without the domain check: the same operations in the same order,
        and the same ``pow`` (``_power_arr``), so the same bits."""
        import numpy as np

        cap = self.tti_capacity
        if cap == math.inf:   # no load is over: min(x, cap) is x
            out = x * self.tti_slope
            out += self.c0
            return out
        # into arrays of x's shape, so that a 0-d load is also worked in place
        out = np.minimum(x, cap, out=np.empty_like(x))
        out *= self.tti_slope
        out += self.c0
        over = np.greater(x, cap)
        if over.any():
            # the wide branch in place, 17 bytes a value with ``out`` and
            # ``over``; a load not over (NaN too) powers 0.0 (fmax)
            excess = np.subtract(x, cap, out=np.empty_like(x))
            np.fmax(excess, 0.0, out=excess)
            _power_arr(excess, self.wide_exponent, self.wide_slope, out=excess)
            excess += self.c0 + self.tti_slope * cap + self.breakdown_jump
            np.copyto(out, excess, where=over)
        return out

    def marginal(self, x: float, side: str | None = None) -> float:
        """One-sided derivative; at the breakdown kink a side must be chosen.

        With a positive breakdown jump the right derivative at the kink is
        +inf (the cost level jumps); otherwise it is the wide-branch slope
        limit.
        """
        if x < 0:
            raise DomainError(f"case level must be >= 0, got {x}")
        cap = self.tti_capacity

        def wide(z):
            return _power(z, self.wide_exponent - 1.0, self.wide_slope * self.wide_exponent)

        if x == cap and math.isfinite(cap):
            if cap > 0:
                if side is None:
                    raise KinkAmbiguityError(
                        f"derivative at the breakdown point x={cap} needs "
                        f"side='left' or 'right'")
                if side == "left":
                    return self.tti_slope
            # right side (the only side when cap == 0)
            return math.inf if self.breakdown_jump > 0 else wide(0.0)
        if x < cap:
            return self.tti_slope
        return wide(x - cap)


class BorderCost(Record):
    """Daily cost of holding imports at level I, zero at the free-travel level.

    ``b0 * (1 - I / i_free) ** curvature`` on [0, i_free]; curvature >= 1
    makes removing the last imports the most expensive.
    """

    b0: float
    i_free: float
    curvature: float = 1.0

    def __post_init__(self):
        _finite(self.b0, "b0")
        _finite(self.i_free, "i_free")
        _finite(self.curvature, "curvature")
        _require(self.b0 >= 0, f"b0 must be >= 0, got {self.b0}")
        _require(self.i_free > 0, f"i_free must be > 0, got {self.i_free}")
        _require(self.curvature >= 1, f"curvature must be >= 1, got {self.curvature}")

    def cost(self, imports: float) -> float:
        if not 0 <= imports <= self.i_free:
            raise DomainError(
                f"import level must lie in [0, {self.i_free}], got {imports}")
        return self.b0 * (1.0 - imports / self.i_free) ** self.curvature

    def marginal(self, imports: float) -> float:
        if not 0 <= imports <= self.i_free:
            raise DomainError(
                f"import level must lie in [0, {self.i_free}], got {imports}")
        slack = 1.0 - imports / self.i_free
        return -self.b0 * self.curvature / self.i_free * slack ** (self.curvature - 1.0)

    def rescaled(self, i_free: float) -> "BorderCost":
        """Same closure cost and curvature with the zero point moved to i_free."""
        return BorderCost(self.b0, i_free, self.curvature)


class OutbreakCost(Record):
    """Realized daily outbreak burden ``per_case * x ** exponent``; zero at zero cases."""

    per_case: float = 0.0
    exponent: float = 1.0

    def __post_init__(self):
        _finite(self.per_case, "per_case")
        _finite(self.exponent, "exponent")
        _require(self.per_case >= 0, f"per_case must be >= 0, got {self.per_case}")
        _require(self.exponent >= 1, f"exponent must be >= 1, got {self.exponent}")

    def cost(self, x: float) -> float:
        if x < 0:
            raise DomainError(f"case level must be >= 0, got {x}")
        return _power(x, self.exponent, self.per_case)

    def cost_arr(self, x: np.ndarray) -> np.ndarray:
        """``cost`` elementwise, without the domain check (see TransmissionCost)."""
        return _power_arr(x, self.exponent, self.per_case)


class CostBreakdown(Record):
    """Cost components at a policy point.

    ``objective`` is what a region minimizes (transmission + border);
    ``total`` adds the realized outbreak burden; ``net_total`` is the
    alternate accounting ``transmission + border - outbreak`` where the
    outbreak term enters as an averted-cost offset.
    """

    transmission: float
    border: float
    outbreak: float

    @property
    def objective(self) -> float:
        return self.transmission + self.border

    @property
    def total(self) -> float:
        return self.transmission + self.border + self.outbreak

    @property
    def net_total(self) -> float:
        return self.transmission + self.border - self.outbreak


class CostCurveSet(Record):
    """One region's three cost curves plus the import case multiplier.

    ``import_multiplier`` converts imported cases into total resulting cases
    (the imports plus their onward transmission).
    """

    transmission: TransmissionCost
    border: BorderCost
    outbreak: OutbreakCost = OutbreakCost()
    import_multiplier: float = 1.0

    def __post_init__(self):
        _finite(self.import_multiplier, "import_multiplier")
        _require(self.import_multiplier >= 1,
                 f"import_multiplier must be >= 1, got {self.import_multiplier}")

    def breakdown(self, load: float, border_level: float) -> CostBreakdown:
        """Each curve's cost at case load ``load`` and import level ``border_level``."""
        return CostBreakdown(self.transmission.cost(load),
                             self.border.cost(border_level),
                             self.outbreak.cost(load))


class ShapeCheck(Record):
    name: str
    passed: bool
    detail: str
    field_path: str | None = None


class ShapeReport(Record):
    checks: tuple[ShapeCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ShapeCheck]:
        return [c for c in self.checks if not c.passed]


def _linspace(stop: float, n: int) -> list[float]:
    """The points of ``np.linspace(0.0, stop, n)``: ``i * step``, ``stop`` last."""
    if n < 2:
        return [0.0] * n
    step = stop / (n - 1)
    return [i * step for i in range(n - 1)] + [stop]


def _strictly_monotone(values: list[float], increasing: bool) -> bool:
    # neighbours are compared, not differenced: inf - inf would be nan
    pairs = zip(values, values[1:])
    return all(after > before if increasing else after < before for before, after in pairs)


def validate_curve_set(curves: CostCurveSet) -> ShapeReport:
    """Sample every curve on a grid and report pass/fail per shape invariant.

    Each curve's scalar ``cost`` is sampled at ``SHAPE_GRID_POINTS`` evenly
    spaced points (``_linspace``). A curve with any sampled cost that is
    not finite (past float range, or nan) gets a failing
    ``<curve>.finite`` check (present only then), even at the last sample
    alone; its shape checks judge the finite samples.
    """
    ct, cb, co = curves.transmission, curves.border, curves.outbreak
    checks = []

    def add(name, passed, detail, field_path=None):
        checks.append(ShapeCheck(name, bool(passed), detail, field_path))

    def sample(name, curve, stop):
        # costs on [0, stop]; any inf or nan among them fails "<name>.finite"
        at = _linspace(stop, SHAPE_GRID_POINTS)
        values = [curve.cost(x) for x in at]
        first = next((i for i, v in enumerate(values) if not math.isfinite(v)), None)
        if first is not None:
            what = "is nan" if math.isnan(values[first]) else "overflows float range"
            add(f"{name}.finite", False,
                f"sampled cost {what} from {at[first]:g} on [0, {stop:g}]", name)
        return [v for v in values if math.isfinite(v)]

    horizon = max(1.0, curves.import_multiplier * cb.i_free)
    if 0 < ct.tti_capacity < math.inf:
        horizon = max(horizon, 2.0 * ct.tti_capacity)
    horizon = min(horizon, sys.float_info.max)   # a range past float range ends there

    ct_vals = sample("transmission", ct, horizon)
    add("transmission.baseline_positive", ct.c0 > 0,
        f"cost at zero cases is {ct.c0}", "transmission.c0")
    add("transmission.strictly_increasing", _strictly_monotone(ct_vals, True),
        f"sampled on [0, {horizon:g}] with {SHAPE_GRID_POINTS} points", "transmission")

    cap = ct.tti_capacity
    if 0 < cap < math.inf:
        eps = _EPS_REL * max(1.0, cap)
        rise = (ct.cost(cap + eps) - ct.cost(cap)) / eps
        add("transmission.breakdown_convex", rise > ct.tti_slope,
            f"marginal just past capacity {rise:g} vs slope before {ct.tti_slope:g}",
            "transmission.wide_slope")
    else:
        add("transmission.breakdown_convex", True,
            "no interior breakdown point (capacity 0 or infinite)")

    cb_vals = sample("border", cb, cb.i_free)
    add("border.closure_cost_positive", cb.b0 > 0,
        f"cost at zero imports is {cb.b0}", "border.b0")
    add("border.strictly_decreasing", _strictly_monotone(cb_vals, False),
        f"sampled on [0, {cb.i_free:g}]", "border")
    add("border.open_zero", abs(cb_vals[-1]) <= 1e-12,
        f"cost at free-travel level is {cb_vals[-1]:g}", "border.i_free")
    # second differences, as np.diff(cb_vals, 2) takes them
    rises = [b - a for a, b in zip(cb_vals, cb_vals[1:])]
    floor = -1e-9 * max(1.0, cb.b0)
    add("border.convex", all(b - a >= floor for a, b in zip(rises, rises[1:])),
        "second differences nonnegative on a uniform grid", "border.curvature")

    co_vals = sample("outbreak", co, horizon)
    add("outbreak.zero_at_zero", co_vals[0] == 0.0,
        f"burden at zero cases is {co_vals[0]:g}", "outbreak.per_case")
    add("outbreak.nondecreasing", all(b >= a for a, b in zip(co_vals, co_vals[1:])),
        f"sampled on [0, {horizon:g}]", "outbreak")

    return ShapeReport(tuple(checks))
