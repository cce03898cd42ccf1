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


def _pairs(rs, horizon):
    """Grid indices ``(first, second)`` of the ordered pairs of distinct
    values of ``rs``, in row-major order; none over a one-day horizon,
    which leaves no day to switch on (and needs no n_r-by-n_r mask)."""
    if horizon == 1:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    return np.nonzero(rs[:, None] != rs[None, :])


def two_segment_rows(rs, horizon):
    """``(first_code, second_code, switch_day)`` of every two-segment
    schedule on the R grid ``rs``, in the row order of ``two_segment_costs``.

    The codes index ``rs`` (``r_first = rs[first_code]``) and are int16, or
    int32 on a grid of 2**15 values or more; switch days are int32. The
    constant schedule of each grid value comes first, in grid order, with
    switch day ``horizon``; then each ordered pair ``(r1, r2)`` of distinct
    grid values in row-major order, with switch days ``1 .. horizon - 1``
    (``r1`` on the days before the switch, ``r2`` from it on). The three
    columns are filled in place: 8 bytes a row with int16 codes.
    """
    n_r = rs.shape[0]
    code = np.int16 if n_r < 2**15 else np.int32
    first, second = _pairs(rs, horizon)
    pairs = (first.shape[0], horizon - 1)
    n = n_r + pairs[0] * pairs[1]
    first_code, second_code = np.empty(n, code), np.empty(n, code)
    switch = np.empty(n, np.int32)
    first_code[:n_r] = second_code[:n_r] = np.arange(n_r)
    switch[:n_r] = horizon
    first_code[n_r:].reshape(pairs)[...] = first[:, None]
    second_code[n_r:].reshape(pairs)[...] = second[:, None]
    switch[n_r:].reshape(pairs)[...] = np.arange(1, horizon)
    return first_code, second_code, switch


# suffix-state cells (pairs x switch days) the scan holds per block: each of
# its three state arrays and the day's temporaries then take 512 KB. Scanning
# 382,401 schedules over 60 days on a 2-core Xeon (2 MB L2 a core) took
# 142-179 ms at this size, 146-223 ms at a half or a quarter of it and
# 172-240 ms at 2-8 times it
_BLOCK_CELLS = 65_536


def two_segment_costs(rs, horizon, x0, params, curves):
    """Cumulative no-travel cost of every two-segment schedule on an R grid.

    Daily cost is ``c_T(x) * g(R) + c_O(x)`` with the stringency weight
    ``g`` of the dynamics ``params``. Returns ``(totals, max_cases,
    final_cases)`` with one entry per row of ``two_segment_rows(rs,
    horizon)``, in its order.

    Schedules share prefixes: one pass over the grid values runs each
    constant-R trajectory, keeping each day's cases, running total and
    running maximum, and only the suffix after the switch is costed per
    schedule. The suffixes run over blocks of ``B = _BLOCK_CELLS //
    (horizon - 1)`` pairs (at least one), whose state is switch-major,
    ``(horizon - 1, B)``: on day ``t`` the row of switch day ``t`` is
    seeded from its ``r1`` prefix, and the day's work is the leading rows
    switched by then. Each finished block is transposed straight into the
    three output columns. So the scan holds the 24 bytes a schedule of its
    output, the ``(horizon + 1, n_r)`` prefixes and about ``_BLOCK_CELLS``
    cells of block state and temporaries, whatever the number of schedules.
    With constant schedules only, the prefix pass runs in the output
    columns and keeps no history.
    ``g`` is evaluated once per grid value. Every array handed to
    ``cost_arr`` or ``weight`` is contiguous, so numpy's ``**`` takes one
    loop for every element and each figure equals a day-by-day scan of its
    schedule bit for bit.
    """
    ct, co = curves.transmission, curves.outbreak
    n_r = rs.shape[0]
    g = params.weight(rs)
    first, second = _pairs(rs, horizon)
    days = horizon - 1
    n = n_r + first.shape[0] * days
    cols = np.empty(n), np.empty(n), np.empty(n)   # totals, max_cases, finals

    # constant-R prefixes: cases, running total and running max at the
    # start of each day 0 .. horizon; with constant schedules only (one
    # grid value or one day) one row of state, the output columns, is
    # advanced in place
    if n == n_r:
        run, peak, xs = (col.reshape(1, n_r) for col in cols)
    else:
        xs, run, peak = np.empty((3, horizon + 1, n_r))
    last = xs.shape[0] - 1
    xs[0], run[0], peak[0] = x0, 0.0, x0
    for t in range(horizon):
        now, nxt = min(t, last), min(t + 1, last)
        np.add(run[now], ct.cost_arr(xs[now]) * g + co.cost_arr(xs[now]), out=run[nxt])
        np.multiply(rs, xs[now], out=xs[nxt])
        np.maximum(peak[now], xs[nxt], out=peak[nxt])
    if n == n_r:
        return cols
    for col, const in zip(cols, (run[horizon], peak[horizon], xs[horizon])):
        col[:n_r] = const

    # suffixes: row s - 1 of a block holds its pairs that switch on day s
    block = max(1, _BLOCK_CELLS // days)
    bufs = np.empty((3, days * min(block, first.shape[0])))
    for lo in range(0, first.shape[0], block):
        f, s = first[lo:lo + block], second[lo:lo + block]
        r2, g2 = rs[s], g[s]
        shape = (days, f.shape[0])
        x, totals, max_cases = (buf[:days * f.shape[0]].reshape(shape) for buf in bufs)
        for t in range(1, horizon):
            x[t - 1] = xs[t, f]
            totals[t - 1] = run[t, f]
            max_cases[t - 1] = peak[t, f]
            live = x[:t]
            cost = ct.cost_arr(live)
            cost *= g2
            cost += co.cost_arr(live)
            totals[:t] += cost
            np.multiply(r2, live, out=live)
            np.maximum(max_cases[:t], live, out=max_cases[:t])
        rows = slice(n_r + lo * days, n_r + (lo + f.shape[0]) * days)
        for col, state in zip(cols, (totals, max_cases, x)):
            col[rows].reshape(shape[::-1])[...] = state.T
    return cols
