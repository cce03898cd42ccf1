"""Discrete-time case trajectories under policy schedules, and their costs.

Cases follow the linear recurrence ``x[t+1] = R[t] * x[t] + alpha * I[t]``:
the day's reproduction target scales the current level and imported cases
enter multiplied by their onward-transmission factor. Daily policy cost is
``c_T(x) * g(R) + c_b(imports) + c_O(x)`` where the stringency weight
``g(R) = ((r0 - R) / (r0 - r_min)) ** q`` is zero with no measures (R at
its uncontrolled value r0) and one at maximal stringency r_min. Schedules
without a travel channel carry no border term.

The schedule comparator enumerates every one- and two-segment reproduction
schedule on an R grid and checks whether any schedule that lets cases grow
beats the best monotone one.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .costs import CostCurveSet
from .errors import DomainError, NumericalFailure

RUNAWAY_CASES = 1e12

# most schedules compare_monotone_vs_relax enumerates: a JSON report costs
# about 3.5 KB of memory per schedule, so the cap keeps it under 4 GB
MAX_SCHEDULES = 1_000_000
# most schedule-days the scan costs (schedule_days): a two-value grid, the
# dearest per day, took 0.67 s for 81.0M schedule-days over 9,000 days on an
# AMD EPYC (about 8 ns a schedule-day), so a scan at the cap takes about 1 s
MAX_SCHEDULE_DAYS = 100_000_000


@dataclass(frozen=True)
class DynamicsParams:
    """Reproduction bounds and the stringency-cost coupling exponent.

    Defaults are modeling placeholders, not calibrated values.
    """

    r0: float = 2.5
    r_min: float = 0.5
    stringency_exponent: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.r_min < self.r0:
            raise DomainError(
                f"need 0 <= r_min < r0, got r_min={self.r_min}, r0={self.r0}")
        if self.stringency_exponent <= 0:
            raise DomainError(
                f"stringency_exponent must be > 0, got {self.stringency_exponent}")

    def stringency(self, r: float) -> float:
        """Measure intensity in [0, 1] implied by a reproduction target."""
        if not self.r_min <= r <= self.r0:
            raise DomainError(
                f"reproduction target must lie in [{self.r_min}, {self.r0}], got {r}")
        return self.weight(r)

    def weight(self, r):
        """``stringency`` without the range check; ``r`` may be an array."""
        return ((self.r0 - r) / (self.r0 - self.r_min)) ** self.stringency_exponent


@dataclass(frozen=True)
class PolicySchedule:
    """Per-day reproduction targets and screening factors over a horizon."""

    reproduction: tuple[float, ...]
    screening: tuple[float, ...]
    params: DynamicsParams

    def __post_init__(self):
        if len(self.reproduction) != len(self.screening):
            raise DomainError(
                f"sequence lengths differ: {len(self.reproduction)} reproduction "
                f"vs {len(self.screening)} screening")
        for t, r in enumerate(self.reproduction):
            if not self.params.r_min <= r <= self.params.r0:
                raise DomainError(f"reproduction[{t}]={r} outside "
                                  f"[{self.params.r_min}, {self.params.r0}]")
        for t, f in enumerate(self.screening):
            if not 0.0 <= f <= 1.0:
                raise DomainError(f"screening[{t}]={f} outside [0, 1]")

    @classmethod
    def constant(cls, r: float, screening: float, horizon: int,
                 params: DynamicsParams) -> "PolicySchedule":
        return cls((r,) * horizon, (screening,) * horizon, params)

    @property
    def horizon(self) -> int:
        return len(self.reproduction)


@dataclass(frozen=True)
class Trajectory:
    """Daily cases with the per-day cost components they incur.

    ``cases`` has horizon+1 entries (start level included); each cost array
    has one entry per day, evaluated at that day's starting level.
    """

    cases: np.ndarray
    transmission_costs: np.ndarray
    border_costs: np.ndarray
    outbreak_costs: np.ndarray
    total_costs: np.ndarray
    cumulative: np.ndarray

    @property
    def final_cases(self) -> float:
        return float(self.cases[-1])

    @property
    def cumulative_cost(self) -> float:
        return float(self.cumulative[-1]) if self.cumulative.size else 0.0


def step(cases: float, r: float, imports: float, import_multiplier: float) -> float:
    """One day of the case recurrence."""
    if cases < 0 or imports < 0:
        raise DomainError("cases and imports must be >= 0")
    return r * cases + import_multiplier * imports


def daily_cost(curves: CostCurveSet, cases: float, r: float, screening: float,
               import_threat: float, params: DynamicsParams) -> float:
    """One day's policy cost with an open travel channel.

    The border term evaluates the region's border curve at the screened
    import level; use :func:`simulate` without a channel for autarky.
    """
    if not 0.0 <= screening <= 1.0:
        raise DomainError(f"screening must lie in [0, 1], got {screening}")
    if import_threat < 0:
        raise DomainError(f"import threat must be >= 0, got {import_threat}")
    g = params.stringency(r)
    costs = curves.breakdown(cases, import_threat * screening)
    return costs.transmission * g + costs.border + costs.outbreak


def simulate(schedule: PolicySchedule, x0: float, curves: CostCurveSet,
             import_threat: Optional[float] = None) -> Trajectory:
    """Run the recurrence and cost every day; deterministic.

    ``import_threat`` is the channel's unscreened expected daily import
    level; ``None`` means no travel channel (no imports, no border term).
    Raises NumericalFailure if cases run past 1e12 (runaway epidemic).
    """
    if x0 < 0:
        raise DomainError(f"starting cases must be >= 0, got {x0}")
    T = schedule.horizon
    r = np.asarray(schedule.reproduction, dtype=np.float64)
    f = np.asarray(schedule.screening, dtype=np.float64)

    if import_threat is None:
        imports = np.zeros(T)
        border = np.zeros(T)
    else:
        if import_threat < 0:
            raise DomainError(f"import threat must be >= 0, got {import_threat}")
        imports = import_threat * f
        if np.any(imports > curves.border.i_free):
            raise DomainError(
                f"screened imports exceed the border-cost domain "
                f"[0, {curves.border.i_free}]")
        border = curves.border.cost_arr(imports)

    # an overflow to inf is a runaway, reported just below
    with np.errstate(over="ignore", invalid="ignore"):
        cases = _kernels.simulate_cases(x0, r, imports, curves.import_multiplier)
    if not np.all(np.isfinite(cases)) or np.any(cases > RUNAWAY_CASES):
        raise NumericalFailure(
            f"runaway epidemic: cases exceeded {RUNAWAY_CASES:g} within {T} days")

    live = cases[:T]
    transmission = curves.transmission.cost_arr(live) * schedule.params.weight(r)
    outbreak = curves.outbreak.cost_arr(live)
    total = transmission + border + outbreak
    return Trajectory(cases=cases, transmission_costs=transmission,
                      border_costs=border, outbreak_costs=outbreak,
                      total_costs=total, cumulative=np.cumsum(total))


def steady_state_holding_cost(curves: CostCurveSet, cases: float,
                              params: DynamicsParams) -> float:
    """Daily cost of holding a constant case level with no travel channel.

    Holding zero cases needs no measures (zero is absorbing), so the
    stringency term vanishes; any positive level must be held at R=1. The
    border curve is costed at its free level ``i_free``, where it is 0.0.
    """
    if cases < 0:
        raise DomainError(f"cases must be >= 0, got {cases}")
    if cases > 0 and not params.r_min <= 1.0 <= params.r0:
        raise DomainError("holding a positive level needs R=1 inside the bounds")
    r_hold = params.r0 if cases == 0 else 1.0
    costs = curves.breakdown(cases, curves.border.i_free)
    return costs.transmission * params.stringency(r_hold) + costs.border + costs.outbreak


@dataclass(frozen=True)
class ScheduleComparison:
    """Exhaustive cost comparison over one- and two-segment R schedules.

    Rows where ``switch_day == horizon`` are constant schedules. A schedule
    "contains growth" when some day strictly increases cases. ``feasible``
    means the endpoint reached the target without running away.
    """

    horizon: int
    x0: float
    x_target: float
    r_step: float
    degenerate: bool
    r_first: np.ndarray
    r_second: np.ndarray
    switch_day: np.ndarray
    total_cost: np.ndarray
    final_cases: np.ndarray
    max_cases: np.ndarray
    feasible: np.ndarray
    runaway: np.ndarray
    contains_growth: np.ndarray
    relax_then_tighten: np.ndarray
    best_index: int
    best_monotone_index: int
    cheapest_growth_index: int               # -1 when no feasible growth schedule exists
    cheapest_relax_then_tighten_index: int   # -1 when none is feasible
    monotone_dominates: bool
    monotone_beats_relax_then_tighten: bool

    @property
    def n_schedules(self) -> int:
        return int(self.total_cost.shape[0])

    @property
    def best_cost(self) -> float:
        return float(self.total_cost[self.best_index])


def r_grid(params: DynamicsParams, r_step: float) -> np.ndarray:
    """The R values the comparator enumerates: ``r_min`` upward by ``r_step``
    to ``r0``, rounded to 12 decimals."""
    return np.round(params.r_min + np.arange(_grid_size(params, r_step)) * r_step, 12)


def _grid_size(params: DynamicsParams, r_step: float) -> int:
    """Length of ``r_grid`` without building it."""
    n_r = int(round((params.r0 - params.r_min) / r_step)) + 1
    # only the last of the n_r steps can pass r0, by up to half a step;
    # it is computed with the same array arithmetic as r_grid's values
    last = np.round(params.r_min + np.arange(n_r - 1, n_r) * r_step, 12)
    return n_r - int(last[0] > params.r0 + 1e-12)


def schedule_count(n_r: int, horizon: int) -> int:
    """Schedules on an ``n_r``-value grid: constants, then each ordered pair
    of distinct values with each switch day ``1 .. horizon - 1``."""
    return n_r + n_r * (n_r - 1) * (horizon - 1)


def schedule_days(n_r: int, horizon: int) -> int:
    """Schedule-days ``_kernels.two_segment_costs`` costs on an ``n_r``-value
    grid: each constant prefix over the whole horizon, then each ordered
    pair's suffixes, one per switch day ``s``, over ``horizon - s`` days."""
    return n_r * horizon + n_r * (n_r - 1) * horizon * (horizon - 1) // 2


def compare_monotone_vs_relax(x0: float, x_target: float, horizon: int,
                              curves: CostCurveSet, params: DynamicsParams,
                              r_step: float = 0.1) -> ScheduleComparison:
    """Enumerate two-segment reproduction schedules reaching the target.

    Feasibility of the target itself is required up front (maximal
    stringency for the whole horizon must reach it), and so are a schedule
    count of at most ``MAX_SCHEDULES`` and at most ``MAX_SCHEDULE_DAYS``
    schedule-days of work; all are checked before anything is allocated.
    Returns per-schedule cumulative costs and whether the cheapest feasible
    schedule containing a growth day is beaten by the best monotone one.

    Rows come in a fixed order: the constant schedules in grid order, then
    for each ordered pair ``(r1, r2)`` of distinct grid values in row-major
    order, switch days ``1 .. horizon - 1`` (``_kernels.two_segment_rows``).
    ``_kernels.two_segment_costs`` costs each ``r1`` prefix once and each
    suffix per schedule, in O(n) memory for n schedules; the rows are held
    as ``(r_first, r_second, switch_day)`` triples, never as an
    n-by-horizon matrix.
    """
    if x_target > x0:
        raise DomainError(f"target {x_target} exceeds the start level {x0}")
    if x_target < 0:
        raise DomainError(f"target must be >= 0, got {x_target}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if not r_step > 0:
        raise DomainError(f"r_step must be > 0, got {r_step}")
    if x0 * params.r_min**horizon > x_target:
        raise DomainError(
            f"target {x_target} unreachable from {x0} in {horizon} days "
            f"even at R={params.r_min}")
    n_r = _grid_size(params, r_step)
    n = schedule_count(n_r, horizon)
    if n > MAX_SCHEDULES:
        raise DomainError(
            f"{n:,} schedules to compare exceed the cap of {MAX_SCHEDULES:,}; "
            f"raise r_grid_step or shorten the horizon")
    days = schedule_days(n_r, horizon)
    if days > MAX_SCHEDULE_DAYS:
        raise DomainError(
            f"{days:,} schedule-days to cost exceed the cap of "
            f"{MAX_SCHEDULE_DAYS:,}; raise r_grid_step or shorten the horizon")

    rs = r_grid(params, r_step)
    # the scan's temporaries are freed before the row triples are built; a
    # schedule whose cases overflow to inf is flagged runaway below
    with np.errstate(over="ignore", invalid="ignore"):
        totals, max_cases, finals = _kernels.two_segment_costs(
            rs, horizon, x0, params, curves)
    r_first, r_second, switch = _kernels.two_segment_rows(rs, horizon)

    runaway = max_cases > RUNAWAY_CASES
    feasible = (finals <= x_target) & ~runaway

    if x0 > 0:
        # every schedule runs r_first on day 0: its switch day is >= 1
        first_grows = r_first > 1.0
        second_grows = (r_second > 1.0) & (switch < horizon) & (r_first > 0.0)
        contains_growth = first_grows | second_grows
        # the relax-to-save-costs pattern: cases grow, then measures tighten
        relax_then_tighten = first_grows & (r_second < r_first) & (switch < horizon)
    else:
        contains_growth = np.zeros(n, dtype=bool)
        relax_then_tighten = np.zeros(n, dtype=bool)

    if not np.any(feasible):
        raise NumericalFailure("no enumerated schedule reaches the target")

    def argmin_masked(mask):
        idx = np.nonzero(mask)[0]
        return int(idx[np.argmin(totals[idx])])

    best_index = argmin_masked(feasible)
    monotone_mask = feasible & ~contains_growth
    growth_mask = feasible & contains_growth
    rtt_mask = feasible & relax_then_tighten
    best_monotone_index = argmin_masked(monotone_mask) if np.any(monotone_mask) else -1
    cheapest_growth_index = argmin_masked(growth_mask) if np.any(growth_mask) else -1
    cheapest_rtt_index = argmin_masked(rtt_mask) if np.any(rtt_mask) else -1

    def beaten(challenger_index):
        if challenger_index < 0 or best_monotone_index < 0:
            return best_monotone_index >= 0
        return bool(totals[challenger_index] >= totals[best_monotone_index])

    return ScheduleComparison(
        horizon=horizon, x0=x0, x_target=x_target, r_step=r_step,
        degenerate=horizon == 1,
        r_first=r_first, r_second=r_second, switch_day=switch,
        total_cost=totals, final_cases=finals, max_cases=max_cases,
        feasible=feasible, runaway=runaway, contains_growth=contains_growth,
        relax_then_tighten=relax_then_tighten,
        best_index=best_index, best_monotone_index=best_monotone_index,
        cheapest_growth_index=cheapest_growth_index,
        cheapest_relax_then_tighten_index=cheapest_rtt_index,
        monotone_dominates=beaten(cheapest_growth_index),
        monotone_beats_relax_then_tighten=beaten(cheapest_rtt_index))
