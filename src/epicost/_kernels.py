"""Hot numeric kernels, one numpy implementation each.

The optimizer grid, the trajectory simulator and the schedule scan run
here. The cost formulas themselves live on the curves in ``costs``
(``cost_arr``), so each kernel takes curve objects and combines them.
``policy_cost_grid`` takes arrays of any shape.

Kernels assume domain-valid inputs; validation lives in the calling modules.
"""

import numpy as np


def policy_cost_grid(t, base_cases, import_scale, curves):
    """Transmission-plus-border cost along a policy axis.

    Case load is ``base_cases + alpha * import_scale * t`` and the border
    curve is evaluated at ``import_scale * t``. With ``base_cases=0,
    import_scale=1`` the axis is the import level itself; with
    ``base_cases=x, import_scale=I`` it is the screening factor.
    """
    t = np.asarray(t, dtype=np.float64)
    cases = base_cases + curves.import_multiplier * import_scale * t
    return curves.transmission.cost_arr(cases) + curves.border.cost_arr(import_scale * t)


def simulate_cases(x0, r_seq, imports_seq, alpha):
    T = r_seq.shape[0]
    cases = np.empty(T + 1)
    cases[0] = x0
    for t in range(T):
        cases[t + 1] = r_seq[t] * cases[t] + alpha * imports_seq[t]
    return cases


def two_segment_rows(rs, horizon):
    """``(r_first, r_second, switch_day)`` of every two-segment schedule on
    the R grid ``rs``, in the row order of ``two_segment_costs``.

    The constant schedule of each grid value comes first, in grid order,
    with switch day ``horizon``; then each ordered pair ``(r1, r2)`` of
    distinct grid values in row-major order, with switch days ``1 ..
    horizon - 1`` (``r1`` on the days before the switch, ``r2`` from it on).
    """
    first, second = np.nonzero(rs[:, None] != rs[None, :])
    days = np.arange(1, horizon, dtype=np.int64)
    r_first = np.concatenate((rs, np.repeat(rs[first], days.shape[0])))
    r_second = np.concatenate((rs, np.repeat(rs[second], days.shape[0])))
    switch = np.concatenate((np.full(rs.shape[0], horizon, dtype=np.int64),
                             np.tile(days, first.shape[0])))
    return r_first, r_second, switch


def two_segment_costs(rs, horizon, x0, params, curves):
    """Cumulative no-travel cost of every two-segment schedule on an R grid.

    Daily cost is ``c_T(x) * g(R) + c_O(x)`` with the stringency weight
    ``g`` of the dynamics ``params``. Returns ``(totals, max_cases,
    final_cases)`` with one entry per row of ``two_segment_rows(rs,
    horizon)``, in its order.

    Schedules share prefixes: one pass over the grid values runs each
    constant-R trajectory, keeping each day's cases, running total and
    running maximum, and only the suffix after the switch is costed per
    schedule. The suffix state is switch-major, ``(horizon - 1, n_pairs)``:
    on day ``t`` the row of switch day ``t`` is seeded from its ``r1``
    prefix, and the day's work is the leading block of rows switched by
    then. ``g`` is evaluated once per grid value. Memory is O(n) in the
    number of schedules. Every array handed to ``cost_arr`` or ``weight``
    is contiguous, so numpy's ``**`` takes one loop for every element and
    each figure equals a day-by-day scan of its schedule bit for bit.
    """
    ct, co = curves.transmission, curves.outbreak
    n_r = rs.shape[0]
    g = params.weight(rs)

    # constant-R prefixes: cases, running total and running max at the
    # start of each day 0 .. horizon
    xs = np.empty((horizon + 1, n_r))
    run = np.empty((horizon + 1, n_r))
    peak = np.empty((horizon + 1, n_r))
    xs[0], run[0], peak[0] = x0, 0.0, x0
    for t in range(horizon):
        run[t + 1] = run[t] + (ct.cost_arr(xs[t]) * g + co.cost_arr(xs[t]))
        np.multiply(rs, xs[t], out=xs[t + 1])
        np.maximum(peak[t], xs[t + 1], out=peak[t + 1])

    # suffixes: row s - 1 holds the schedules that switch on day s
    first, second = np.nonzero(rs[:, None] != rs[None, :])
    if not first.shape[0]:    # a one-value grid: constant schedules only
        return run[horizon].copy(), peak[horizon].copy(), xs[horizon].copy()
    r2, g2 = rs[second], g[second]
    shape = (horizon - 1, first.shape[0])
    x, totals, max_cases = np.empty(shape), np.empty(shape), np.empty(shape)
    for t in range(1, horizon):
        x[t - 1] = xs[t, first]
        totals[t - 1] = run[t, first]
        max_cases[t - 1] = peak[t, first]
        live = x[:t]
        cost = ct.cost_arr(live)
        cost *= g2
        cost += co.cost_arr(live)
        totals[:t] += cost
        np.multiply(r2, live, out=live)
        np.maximum(max_cases[:t], live, out=max_cases[:t])

    out = []
    for const, pairs in ((run[horizon], totals), (peak[horizon], max_cases),
                         (xs[horizon], x)):
        col = np.empty(n_r + pairs.size)
        col[:n_r] = const
        col[n_r:].reshape(shape[::-1])[...] = pairs.T
        out.append(col)
    return tuple(out)
