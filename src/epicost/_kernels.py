"""Hot numeric kernels, one numpy implementation each.

The schedule scan runs here: ``ScheduleScan``, the schedule comparison's
one table class, from its input checks to its rows' flags. The optimizers
and the shape gate are scalar code and do not use this module, nor does
the trajectory simulator, which steps and costs its days over Python
floats with the curves' scalar ``cost``. The cost formulas themselves
live on the curves in ``costs`` (``cost_arr``), so each kernel takes
curve objects and combines them. The scan holds the constant-R prefixes
of its schedules only: its one entry point, ``rows(lo, hi)``, computes
the codes, switch days, costs and flags of a range of rows when they are
asked for, so no caller need hold the whole table. This is the one
module that imports numpy when it is imported; the others import it, and
this module, inside the functions that make arrays.

The scan checks its own inputs; the curves' array forms assume
domain-valid ones, validated by their callers.
"""

import numpy as np

from . import trajectory
from .errors import DomainError


def _put(out, table, skip):
    """Fill ``out`` with the cells ``skip ..`` of the 2-D ``table`` read in
    row-major order, without a flat copy of the table: the end of one of
    its rows, whole rows, then the start of the next."""
    width, m = table.shape[1], out.shape[0]
    row, col = divmod(skip, width)
    head = min(m, width - col) if col else 0
    if head:
        out[:head] = table[row, col:col + head]
        row += 1
    whole = (m - head) // width
    out[head:head + whole * width].reshape(whole, width)[...] = table[row:row + whole]
    tail = m - head - whole * width
    if tail:
        out[m - tail:] = table[row + whole, :tail]


# suffix-state cells (pairs x switch days) the scan holds per block: each of
# its three state arrays and the day's temporaries then take 512 KB. Scanning
# 382,401 schedules over 60 days on a 2-core Xeon (2 MB L2 a core) took
# 142-179 ms at this size, 146-223 ms at a half or a quarter of it and
# 172-240 ms at 2-8 times it
_BLOCK_CELLS = 65_536


class ScheduleScan:
    """A schedule comparison as a scan: the rows of every two-segment
    schedule on its R grid, with their cumulative no-travel cost, cases
    and flags, a range of rows at a time.

    Construction checks the inputs and the caps (``trajectory``'s
    ``MAX_SCHEDULES`` and ``MAX_SCHEDULE_DAYS``, read there each time; see
    ``trajectory.compare_monotone_vs_relax``) before anything is
    allocated, then builds the grid ``r_grid`` (``trajectory.r_grid``),
    refuses one whose values coincide, and runs the constant-R prefix
    pass. Rows are computed only when asked for: ``rows(lo, hi)`` gives
    the columns of rows ``lo .. hi - 1``, and their ``least(lo)``
    condenses them to what the verdicts need.
    ``trajectory.summarize`` merges the reductions of consecutive row
    ranges, so the verdicts over every row can be reached one range at a
    time, in any process.

    The constant schedule of each grid value comes first, in grid order,
    with switch day ``horizon``; then each ordered pair ``(r1, r2)`` of
    distinct grid values in row-major order, with switch days ``1 ..
    horizon - 1`` (``r1`` on the days before the switch, ``r2`` from it
    on): ``n`` is ``trajectory.schedule_count``. None has a pair over a
    one-day horizon, which leaves no day to switch on: such a scan is
    ``degenerate``, every schedule constant. The grid's values are
    distinct, so pair ``p`` is the ``p % (n_r - 1)``-th value other than
    the ``p // (n_r - 1)``-th.

    Daily cost is ``c_T(x) * g(R) + c_O(x)`` with the stringency weight
    ``g`` of the dynamics ``params``, evaluated once per grid value.

    Schedules share prefixes. Where there are pairs, construction runs
    each constant-R trajectory once and keeps each day's cases, running
    total and running maximum: the ``(3, horizon + 1, n_r)`` ``prefixes``.
    With the grid and its weights, that is all the scan holds,
    whatever the number of schedules.

    Every power, in ``cost_arr`` and ``weight``, is libm's ``pow``
    (``float_power``, which has no SIMD loop), so each figure equals a
    day-by-day scan of its schedule with the scalar curves bit for bit,
    whatever range it was computed in.
    """

    def __init__(self, x0: float, x_target: float, horizon: int, curves,
                 params, r_step: float = 0.1):
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
        # every grid value is a constant schedule, and a grid of s steps has
        # at least round(s) values: one past the cap is refused on its float
        # step count, before numpy sees a count beyond int64 (or inf)
        steps = (params.r0 - params.r_min) / r_step
        if not steps < trajectory.MAX_SCHEDULES + 1:
            raise DomainError(
                f"an R grid of {steps:.3g} steps gives more schedules than the cap "
                f"of {trajectory.MAX_SCHEDULES:,}; raise r_grid_step")
        n_r = trajectory._grid_size(params, r_step)
        n = trajectory.schedule_count(n_r, horizon)
        if n > trajectory.MAX_SCHEDULES:
            raise DomainError(
                f"{n:,} schedules to compare exceed the cap of {trajectory.MAX_SCHEDULES:,}; "
                f"raise r_grid_step or shorten the horizon")
        days = trajectory.schedule_days(n_r, horizon)
        if days > trajectory.MAX_SCHEDULE_DAYS:
            raise DomainError(
                f"{days:,} schedule-days to cost exceed the cap of "
                f"{trajectory.MAX_SCHEDULE_DAYS:,}; raise r_grid_step or shorten the horizon")

        self.r_grid = rs = trajectory.r_grid(params, r_step)
        if np.any(rs[1:] == rs[:-1]):
            raise DomainError(f"an R grid of {n_r:,} values holds only "
                              f"{len(np.unique(rs)):,} distinct ones; raise r_grid_step")
        self.n, self.x0, self.x_target, self.horizon = n, x0, x_target, horizon
        self.degenerate = horizon == 1
        self.ct, self.co = curves.transmission, curves.outbreak
        # a schedule whose cases overflow to inf is flagged runaway in rows
        with np.errstate(over="ignore", invalid="ignore"):
            self.g = params.weight(rs)
            if n > n_r:
                self.prefixes = np.empty((3, horizon + 1, n_r))
                self._run_prefixes(rs, self.g, *self.prefixes)

    def _pairs(self, p, q):
        """Grid indices ``(first, second)`` of pairs ``p .. q - 1``."""
        first, other = np.divmod(np.arange(p, q), self.r_grid.shape[0] - 1)
        return first, other + (other >= first)

    def _day_cost(self, x, g):
        """``c_T(x) * g + c_O(x)``, in that order, for both passes."""
        cost = self.ct.cost_arr(x)
        cost *= g
        cost += self.co.cost_arr(x)
        return cost

    def _run_prefixes(self, rs, g, xs, run, peak):
        """Cases, running total and running maximum of the constant
        schedules on ``rs`` at the start of each day 0 .. horizon, into
        arrays of ``horizon + 1`` rows, or of one row advanced in place."""
        last = xs.shape[0] - 1
        xs[0], run[0], peak[0] = self.x0, 0.0, self.x0
        for t in range(self.horizon):
            now, nxt = min(t, last), min(t + 1, last)
            np.add(run[now], self._day_cost(xs[now], g), out=run[nxt])
            np.multiply(rs, xs[now], out=xs[nxt])
            np.maximum(peak[now], xs[nxt], out=peak[nxt])

    def _suffixes(self, f, s):
        """``(totals, max_cases, finals)`` of the pairs ``(f, s)``,
        switch-major ``(horizon - 1, pairs)``: the row of switch day ``s``
        starts from its ``r1`` prefix at day ``s``, and day ``t``'s work is
        the leading rows switched by then."""
        r2, g2 = self.r_grid[s], self.g[s]
        state = np.empty((3, self.horizon - 1, f.shape[0]))
        np.take(self.prefixes[:, 1:self.horizon], f, axis=2, out=state)
        x, totals, max_cases = state
        for t in range(1, self.horizon):
            live = x[:t]
            totals[:t] += self._day_cost(live, g2)
            np.multiply(r2, live, out=live)
            np.maximum(max_cases[:t], live, out=max_cases[:t])
        return totals, max_cases, x

    def rows(self, lo: int, hi: int) -> "trajectory.ScheduleRows":
        """The columns of rows ``lo .. hi - 1``: about 36 bytes a row.

        The codes index ``r_grid`` (``r_first = r_grid[first_code]``) and
        are int16, or int32 on a grid of 2**15 values or more; switch days
        are int32. The constant rows asked for run the prefix pass in the
        output columns. The pair rows run over blocks of ``_BLOCK_CELLS //
        (horizon - 1)`` pairs (at least one), whose codes, switch days and
        transposed suffix state go straight into the output columns. So a
        call holds its 36 bytes a row of output, a block of state and the
        day's temporaries: about ``_BLOCK_CELLS`` cells.
        """
        rs, horizon = self.r_grid, self.horizon
        n_r = rs.shape[0]
        code = np.int16 if n_r < 2**15 else np.int32
        cols = (np.empty(hi - lo, code), np.empty(hi - lo, code),
                np.empty(hi - lo, np.int32), *(np.empty(hi - lo) for _ in range(3)))
        first, second, switch, totals, max_cases, finals = cols
        with np.errstate(over="ignore", invalid="ignore"):
            k = min(hi, n_r) - lo   # constant rows asked for
            if k > 0:
                first[:k] = second[:k] = np.arange(lo, lo + k)
                switch[:k] = horizon
                self._run_prefixes(rs[lo:lo + k], self.g[lo:lo + k], *(
                    col[:k].reshape(1, k) for col in (finals, totals, max_cases)))
            # the pair rows asked for, counted from the first pair row
            a, b = max(lo, n_r) - n_r, hi - n_r
            if a < b:
                days = horizon - 1
                block, last = max(1, _BLOCK_CELLS // days), -(-b // days)
                for p in range(a // days, last, block):
                    q = min(p + block, last)
                    start, stop = max(a, p * days), min(b, q * days)
                    f, s = self._pairs(p, q)
                    tables = (f[:, None], s[:, None], np.arange(1, horizon),
                              *(state.T for state in self._suffixes(f, s)))
                    for col, table in zip(cols, tables):
                        _put(col[n_r - lo + start:n_r - lo + stop],
                             np.broadcast_to(table, (q - p, days)), start - p * days)
        # an overflowed total reads inf also where 0 * inf made it nan (a
        # zero weight or term)
        totals[np.isnan(totals)] = np.inf

        runaway = max_cases > trajectory.RUNAWAY_CASES
        feasible = (finals <= self.x_target) & ~runaway
        if self.x0 > 0:
            # every schedule runs r_first on day 0: its switch day is >= 1
            grows = rs > 1.0
            first_grows = grows[first]
            second_grows = grows[second] & (switch < horizon) & (rs > 0.0)[first]
            contains_growth = first_grows | second_grows
            # the relax-to-save-costs pattern: cases grow, then measures
            # tighten (the grid ascends, so a lower code is a lower R)
            relax_then_tighten = first_grows & (second < first) & (switch < horizon)
        else:
            contains_growth = np.zeros(hi - lo, dtype=bool)
            relax_then_tighten = np.zeros(hi - lo, dtype=bool)
        return trajectory.ScheduleRows(first, second, switch, totals, finals, max_cases,
                                       feasible, runaway, contains_growth, relax_then_tighten)
