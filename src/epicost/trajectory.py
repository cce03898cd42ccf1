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
beats the best monotone one. Its scan, ``_kernels.ScheduleScan``, holds
only the constant-R prefixes of the schedules and computes rows when a
range of them is asked for, as ``ScheduleRows``; it reads this module's
caps (``MAX_SCHEDULES``, ``MAX_SCHEDULE_DAYS``), grid (``r_grid``) and
schedule count (``schedule_count``) each time it is made. The reductions
of row ranges (``ScheduleRows.least``) merge into the verdicts
(``summarize``), so the comparison can run a range at a time.
``compare_monotone_vs_relax`` is the scan's whole table and its one
reduction; it imports the scan, and numpy with it, when it is called.
"""

from __future__ import annotations

import itertools
import math
from array import array
from typing import NamedTuple, Optional

from ._record import Record
from .costs import CostCurveSet, _pow
from .errors import DomainError, NumericalFailure

RUNAWAY_CASES = 1e12

# most schedules a comparison enumerates. The CLI's reports stream in
# bounded memory, so the cap bounds their time and size: at 979,041
# schedules (161 grid values, 39 days) on a 2-core Xeon the CSV report took
# 2.4 s for 87 MB and the JSON one 5.9 s for 324 MB (medians of 3), at 31
# and 33 MB peak RSS; compare_monotone_vs_relax holds its whole table,
# about 36 bytes a schedule
MAX_SCHEDULES = 1_000_000
# most schedule-days the scan costs (schedule_days): a two-value grid, the
# dearest per day, took 0.67 s for 81.0M schedule-days over 9,000 days on an
# AMD EPYC (about 8 ns a schedule-day), so a scan at the cap takes about 1 s
MAX_SCHEDULE_DAYS = 100_000_000


class DynamicsParams(Record):
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
        """``stringency`` without the range check; ``r`` may be an array,
        whose power is libm's ``pow`` as a float's is (``costs._pow``)."""
        return _pow((self.r0 - r) / (self.r0 - self.r_min), self.stringency_exponent)


class PolicySchedule(Record):
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


class Trajectory(Record):
    """Daily cases with the per-day cost components they incur, each an
    ``array('d')``.

    ``cases`` has horizon+1 entries (start level included); each cost array
    has one entry per day, evaluated at that day's starting level.
    """

    cases: array
    transmission_costs: array
    border_costs: array
    outbreak_costs: array
    total_costs: array
    cumulative: array

    @property
    def final_cases(self) -> float:
        return self.cases[-1]

    @property
    def cumulative_cost(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0


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

    Job: the oracle for ``simulate``'s days in ``tests/test_trajectory.py``.
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
    A day costs ``c_T(x) * g(R)``, then plus the border term, then plus
    ``c_O(x)``, by the curves' scalar ``cost`` and ``params.weight``, and
    ``cumulative`` sums the days in order: the figures of the schedule
    scan's row for the same schedule, bit for bit.
    Raises NumericalFailure if cases run past 1e12 (runaway epidemic).
    """
    if x0 < 0:
        raise DomainError(f"starting cases must be >= 0, got {x0}")
    T = schedule.horizon
    if import_threat is None:
        imports = border = array("d", [0.0]) * T
    else:
        if import_threat < 0:
            raise DomainError(f"import threat must be >= 0, got {import_threat}")
        imports = array("d", (import_threat * f for f in schedule.screening))
        if any(v > curves.border.i_free for v in imports):
            raise DomainError(
                f"screened imports exceed the border-cost domain "
                f"[0, {curves.border.i_free}]")
        border = array("d", map(curves.border.cost, imports))

    # an overflow to inf, or a NaN start, is a runaway, reported just below
    cases = array("d", [x0])
    for r, imports_t in zip(schedule.reproduction, imports):
        if not cases[-1] <= RUNAWAY_CASES:
            break
        cases.append(step(cases[-1], r, imports_t, curves.import_multiplier))
    if not cases[-1] <= RUNAWAY_CASES:
        raise NumericalFailure(
            f"runaway epidemic: cases exceeded {RUNAWAY_CASES:g} within {T} days")

    weight = schedule.params.weight
    transmission = array("d", (curves.transmission.cost(x) * weight(r)
                               for x, r in zip(cases, schedule.reproduction)))
    outbreak = array("d", map(curves.outbreak.cost, cases[:T]))
    total = array("d", (t + b + o for t, b, o in zip(transmission, border, outbreak)))
    return Trajectory(cases=cases, transmission_costs=transmission,
                      border_costs=border, outbreak_costs=outbreak,
                      total_costs=total, cumulative=array("d", itertools.accumulate(total)))


def steady_state_holding_cost(curves: CostCurveSet, cases: float,
                              params: DynamicsParams) -> float:
    """Daily cost of holding a constant case level with no travel channel.

    Holding zero cases needs no measures (zero is absorbing), so the
    stringency term vanishes; any positive level must be held at R=1. It is
    ``daily_cost`` of an open channel at the border curve's free level
    ``i_free``, where the border costs 0.0.
    """
    if cases < 0:
        raise DomainError(f"cases must be >= 0, got {cases}")
    if cases > 0 and not params.r_min <= 1.0 <= params.r0:
        raise DomainError("holding a positive level needs R=1 inside the bounds")
    r_hold = params.r0 if cases == 0 else 1.0
    return daily_cost(curves, cases, r_hold, 1.0, curves.border.i_free, params)


class ScheduleComparison(Record):
    """Exhaustive cost comparison over one- and two-segment R schedules.

    Rows where ``switch_day == horizon`` are constant schedules. A row's R
    values are held as codes into the ascending grid ``r_grid``; ``r_first``
    and ``r_second`` give them as floats. A schedule "contains growth" when
    some day strictly increases cases. ``feasible`` means the endpoint
    reached the target without running away.
    """

    horizon: int
    x0: float
    x_target: float
    r_step: float
    degenerate: bool
    r_grid: np.ndarray
    first_code: np.ndarray
    second_code: np.ndarray
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
    def r_first(self) -> np.ndarray:
        return self.r_grid[self.first_code]

    @property
    def r_second(self) -> np.ndarray:
        return self.r_grid[self.second_code]

    @property
    def n_schedules(self) -> int:
        return int(self.total_cost.shape[0])

    @property
    def best_cost(self) -> float:
        return float(self.total_cost[self.best_index])


def r_grid(params: DynamicsParams, r_step: float) -> np.ndarray:
    """The R values the comparator enumerates: ``r_min`` upward by ``r_step``
    to ``r0``, rounded to 12 decimals (a value too large to round, above
    about 1.8e296, is kept as it is)."""
    import numpy as np

    return _round12(params.r_min + np.arange(_grid_size(params, r_step)) * r_step)


def _round12(v: np.ndarray) -> np.ndarray:
    import numpy as np

    # np.round scales by 1e12, which overflows to inf past about 1.8e296
    with np.errstate(over="ignore"):
        rounded = np.round(v, 12)
    return np.where(np.isinf(rounded), v, rounded)


def _grid_size(params: DynamicsParams, r_step: float) -> int:
    """Length of ``r_grid`` without building it."""
    import numpy as np

    n_r = int(round((params.r0 - params.r_min) / r_step)) + 1
    # only the last of the n_r steps can pass r0, by up to half a step;
    # it is computed with the same array arithmetic as r_grid's values
    last = _round12(params.r_min + np.arange(n_r - 1, n_r) * r_step)
    return n_r - int(last[0] > params.r0 + 1e-12)


def schedule_count(n_r: int, horizon: int) -> int:
    """Schedules on an ``n_r``-value grid: constants, then each ordered pair
    of distinct values with each switch day ``1 .. horizon - 1``."""
    return n_r + n_r * (n_r - 1) * (horizon - 1)


def schedule_days(n_r: int, horizon: int) -> int:
    """Schedule-days ``_kernels.ScheduleScan`` costs on an ``n_r``-value
    grid: each constant prefix over the whole horizon, then each ordered
    pair's suffixes, one per switch day ``s``, over ``horizon - s`` days."""
    return n_r * horizon + n_r * (n_r - 1) * horizon * (horizon - 1) // 2


class ScheduleRows(NamedTuple):
    """The columns of a range of rows of a ``ScheduleComparison``, as
    ``_kernels.ScheduleScan.rows`` gives them."""

    first_code: np.ndarray
    second_code: np.ndarray
    switch_day: np.ndarray
    total_cost: np.ndarray
    final_cases: np.ndarray
    max_cases: np.ndarray
    feasible: np.ndarray
    runaway: np.ndarray
    contains_growth: np.ndarray
    relax_then_tighten: np.ndarray

    def least(self, offset: int) -> tuple:
        """For each of the verdicts' masks (feasible; feasible and
        monotone; feasible with growth; feasible relax-then-tighten), the
        least masked total and the first masked row holding it, counted
        from row ``offset`` (the first masked row where all are inf), or
        ``(inf, -1)`` for an empty mask; computed through 1-byte
        temporaries only."""
        import numpy as np

        totals, feasible, growth = self.total_cost, self.feasible, self.contains_growth
        out = []
        for mask in (feasible, feasible & ~growth, feasible & growth,
                     feasible & self.relax_then_tighten):
            if not mask.any():
                out.append((math.inf, -1))
                continue
            least = totals.min(where=mask, initial=np.inf)
            out.append((float(least), offset + int(np.argmax(mask & (totals == least)))))
        return tuple(out)


class ScheduleSummary(NamedTuple):
    """The verdicts of a ``ScheduleComparison`` and the rows behind them."""

    best_index: int
    best_cost: float
    best_monotone_index: int
    cheapest_growth_index: int
    cheapest_relax_then_tighten_index: int
    monotone_dominates: bool
    monotone_beats_relax_then_tighten: bool


def summarize(reductions) -> ScheduleSummary:
    """The verdicts over every row from ``ScheduleRows.least`` of
    consecutive row ranges that cover them, in row order: ``min`` keeps
    the first of equal totals, so a tie goes to the first row, as in one
    argmin over all rows.

    Raises ``NumericalFailure`` when no schedule is feasible.
    """
    best, monotone, growth, rtt = (
        min((pair for pair in pairs if pair[1] >= 0), key=lambda pair: pair[0],
            default=(math.inf, -1))
        for pairs in zip(*reductions))
    if best[1] < 0:
        raise NumericalFailure("no enumerated schedule reaches the target")

    def beaten(challenger):
        if challenger[1] < 0 or monotone[1] < 0:
            return monotone[1] >= 0
        return challenger[0] >= monotone[0]

    return ScheduleSummary(best[1], best[0], monotone[1], growth[1], rtt[1],
                           beaten(growth), beaten(rtt))


def compare_monotone_vs_relax(x0: float, x_target: float, horizon: int,
                              curves: CostCurveSet, params: DynamicsParams,
                              r_step: float = 0.1) -> ScheduleComparison:
    """Enumerate two-segment reproduction schedules reaching the target.

    Feasibility of the target itself is required up front (maximal
    stringency for the whole horizon must reach it), and so are a schedule
    count of at most ``MAX_SCHEDULES`` and at most ``MAX_SCHEDULE_DAYS``
    schedule-days of work; all are checked before anything is allocated.
    An R grid whose values coincide, its step below their float spacing or
    their 12 decimals, is refused once it is built.
    Returns per-schedule cumulative costs and whether the cheapest feasible
    schedule containing a growth day is beaten by the best monotone one.

    Rows come in a fixed order: the constant schedules in grid order, then
    for each ordered pair ``(r1, r2)`` of distinct grid values in row-major
    order, switch days ``1 .. horizon - 1`` (``_kernels.ScheduleScan``).
    This is the scan's ``rows`` over every row and ``summarize`` of its
    one reduction, so it holds the whole table: 24 bytes a schedule of
    costs and cases, 8 of grid codes and switch days and 4 of flags, about
    36 bytes a schedule in all. A caller that can take the rows a range at
    a time uses ``_kernels.ScheduleScan`` itself.
    """
    from ._kernels import ScheduleScan

    scan = ScheduleScan(x0, x_target, horizon, curves, params, r_step)
    rows = scan.rows(0, scan.n)
    summary = summarize([rows.least(0)])
    return ScheduleComparison(
        horizon=horizon, x0=x0, x_target=x_target, r_step=r_step,
        degenerate=scan.degenerate, r_grid=scan.r_grid, **rows._asdict(),
        best_index=summary.best_index,
        best_monotone_index=summary.best_monotone_index,
        cheapest_growth_index=summary.cheapest_growth_index,
        cheapest_relax_then_tighten_index=summary.cheapest_relax_then_tighten_index,
        monotone_dominates=summary.monotone_dominates,
        monotone_beats_relax_then_tighten=summary.monotone_beats_relax_then_tighten)
