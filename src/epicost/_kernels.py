"""Hot numeric kernels, one numpy implementation each.

The schedule scan runs here; the trajectory simulator, the optimizers and
the shape gate are scalar code and do not use this module. The cost
formulas themselves live on the curves in ``costs`` (``cost_arr``), so
each kernel takes curve objects and combines them. The schedule scan
(``TwoSegmentScan``) holds the constant-R prefixes of its schedules only:
the rows of any range are computed when they are asked for, so no caller
need hold the whole table. This is the one module that imports numpy when
it is imported; the others import it, and this module, inside the
functions that make arrays.

Kernels assume domain-valid inputs; validation lives in the calling modules.
"""

import numpy as np


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


class TwoSegmentRows:
    """The rows of every two-segment schedule on the R grid ``rs``.

    The constant schedule of each grid value comes first, in grid order,
    with switch day ``horizon``; then each ordered pair ``(r1, r2)`` of
    distinct grid values in row-major order, with switch days ``1 ..
    horizon - 1`` (``r1`` on the days before the switch, ``r2`` from it
    on). None has a pair over a one-day horizon, which leaves no day to
    switch on. Only each grid value's first pair is held (``starts``):
    the pairs of any row range are found from it when asked for.
    """

    def __init__(self, rs, horizon):
        self.rs, self.horizon = rs, horizon
        n_r = rs.shape[0]
        self.starts = np.zeros(n_r + 1, np.int64)
        if horizon > 1:
            np.cumsum(np.count_nonzero(rs[:, None] != rs[None, :], axis=1),
                      out=self.starts[1:])
        self.n = n_r + int(self.starts[-1]) * (horizon - 1)

    def _pairs(self, p, q):
        """Grid indices ``(first, second)`` of pairs ``p .. q - 1``."""
        i = int(np.searchsorted(self.starts, p, "right")) - 1
        j = int(np.searchsorted(self.starts, q, "left"))
        first, second = np.nonzero(self.rs[i:j, None] != self.rs[None, :])
        skip = p - int(self.starts[i])
        return first[skip:skip + q - p] + i, second[skip:skip + q - p]

    def codes(self, lo, hi):
        """``(first_code, second_code, switch_day)`` of rows ``lo .. hi - 1``.

        The codes index ``rs`` (``r_first = rs[first_code]``) and are int16,
        or int32 on a grid of 2**15 values or more; switch days are int32.
        The columns are filled in place: 8 bytes a row with int16 codes.
        """
        n_r = self.rs.shape[0]
        code = np.int16 if n_r < 2**15 else np.int32
        first, second = np.empty(hi - lo, code), np.empty(hi - lo, code)
        switch = np.empty(hi - lo, np.int32)
        k = min(hi, n_r) - lo
        if k > 0:
            first[:k] = second[:k] = np.arange(lo, lo + k)
            switch[:k] = self.horizon
        # the pair rows asked for, counted from the first pair row
        a, b = max(lo, n_r) - n_r, hi - n_r
        if a < b:
            days = self.horizon - 1
            p, q = a // days, -(-b // days)
            f, s = self._pairs(p, q)
            for col, table in zip((first, second, switch),
                                  (f[:, None], s[:, None], np.arange(1, self.horizon))):
                _put(col[n_r - lo + a:], np.broadcast_to(table, (q - p, days)),
                     a - p * days)
        return first, second, switch


# suffix-state cells (pairs x switch days) the scan holds per block: each of
# its three state arrays and the day's temporaries then take 512 KB. Scanning
# 382,401 schedules over 60 days on a 2-core Xeon (2 MB L2 a core) took
# 142-179 ms at this size, 146-223 ms at a half or a quarter of it and
# 172-240 ms at 2-8 times it
_BLOCK_CELLS = 65_536


class TwoSegmentScan(TwoSegmentRows):
    """Cumulative no-travel cost of the two-segment schedules on an R grid,
    a range of rows at a time.

    Daily cost is ``c_T(x) * g(R) + c_O(x)`` with the stringency weight
    ``g`` of the dynamics ``params``, evaluated once per grid value.

    Schedules share prefixes. Construction runs each constant-R
    trajectory once and keeps each day's cases, running total and running
    maximum: the ``(3, horizon + 1, n_r)`` ``prefixes``. With the grid, its
    weights and ``starts``, that is all the scan holds, whatever the
    number of schedules; ``costs`` computes the rows it is asked for and
    returns them. With constant schedules only (one grid value or one
    day) nothing is kept: ``costs`` runs the prefix pass over the grid
    values it is asked for, in its output columns.

    Every array handed to ``cost_arr`` or ``weight`` is contiguous, so
    numpy's ``**`` takes one loop for every element, and each figure
    equals a day-by-day scan of its schedule bit for bit, whatever range
    it was computed in.
    """

    def __init__(self, rs, horizon, x0, params, curves):
        super().__init__(rs, horizon)
        self.x0, self.ct, self.co = x0, curves.transmission, curves.outbreak
        self.g = params.weight(rs)
        self.prefixes = None
        if self.n > rs.shape[0]:
            self.prefixes = np.empty((3, horizon + 1, rs.shape[0]))
            self._run_prefixes(rs, self.g, *self.prefixes)

    def _run_prefixes(self, rs, g, xs, run, peak):
        """Cases, running total and running maximum of the constant
        schedules on ``rs`` at the start of each day 0 .. horizon, into
        arrays of ``horizon + 1`` rows, or of one row advanced in place."""
        last = xs.shape[0] - 1
        xs[0], run[0], peak[0] = self.x0, 0.0, self.x0
        for t in range(self.horizon):
            now, nxt = min(t, last), min(t + 1, last)
            cost = self.ct.cost_arr(xs[now])
            cost *= g
            cost += self.co.cost_arr(xs[now])
            np.add(run[now], cost, out=run[nxt])
            np.multiply(rs, xs[now], out=xs[nxt])
            np.maximum(peak[now], xs[nxt], out=peak[nxt])

    def _suffixes(self, p, q):
        """``(totals, max_cases, finals)`` of pairs ``p .. q - 1``,
        switch-major ``(horizon - 1, q - p)``: the row of switch day ``s``
        starts from its ``r1`` prefix at day ``s``, and day ``t``'s work is
        the leading rows switched by then."""
        f, s = self._pairs(p, q)
        r2, g2 = self.rs[s], self.g[s]
        state = np.empty((3, self.horizon - 1, q - p))
        np.take(self.prefixes[:, 1:self.horizon], f, axis=2, out=state)
        x, totals, max_cases = state
        for t in range(1, self.horizon):
            live = x[:t]
            cost = self.ct.cost_arr(live)
            cost *= g2
            cost += self.co.cost_arr(live)
            totals[:t] += cost
            np.multiply(r2, live, out=live)
            np.maximum(max_cases[:t], live, out=max_cases[:t])
        return totals, max_cases, x

    def costs(self, lo, hi):
        """``(totals, max_cases, final_cases)`` of rows ``lo .. hi - 1``.

        The suffixes run over blocks of ``_BLOCK_CELLS // (horizon - 1)``
        pairs (at least one), each transposed straight into the output
        columns. So a call holds its 24 bytes a row of output, a block of
        state and the day's temporaries: about ``_BLOCK_CELLS`` cells.
        """
        cols = np.empty(hi - lo), np.empty(hi - lo), np.empty(hi - lo)
        k = min(hi, self.rs.shape[0]) - lo   # constant rows asked for
        if k > 0 and self.prefixes is None:
            run, peak, xs = (col[:k].reshape(1, k) for col in cols)
            self._run_prefixes(self.rs[lo:lo + k], self.g[lo:lo + k], xs, run, peak)
        elif k > 0:
            xs, run, peak = self.prefixes[:, -1, lo:lo + k]
            for col, const in zip(cols, (run, peak, xs)):
                col[:k] = const
        n_r = self.rs.shape[0]
        a, b = max(lo, n_r) - n_r, hi - n_r
        if a < b:
            days = self.horizon - 1
            block, last = max(1, _BLOCK_CELLS // days), -(-b // days)
            for p in range(a // days, last, block):
                q = min(p + block, last)
                start, stop = max(a, p * days), min(b, q * days)
                for col, state in zip(cols, self._suffixes(p, q)):
                    _put(col[n_r - lo + start:n_r - lo + stop], state.T, start - p * days)
        return cols
