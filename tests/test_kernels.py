"""The numpy kernels and the curves' array forms against the scalar cost
curves and plain-Python loops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicost import _kernels as K
from epicost.costs import BorderCost, CostCurveSet, OutbreakCost, TransmissionCost
from epicost.errors import NumericalFailure
from epicost.trajectory import (RUNAWAY_CASES, DynamicsParams, PolicySchedule,
                                simulate)


def random_ct_params(rng):
    slope = float(rng.uniform(0.0, 1.0))
    cap = float(rng.choice([0.0, 5.0, np.inf]))
    return (float(rng.uniform(0.5, 2.0)), slope, cap,
            float(rng.uniform(0.0, 2.0)), slope + 0.5,
            float(rng.uniform(1.0, 2.5)))


_level = st.floats(0.0, 5.0)
_exponent = st.floats(1.0, 3.0)
_oracle = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def transmission_costs(draw):
    cap = draw(st.sampled_from([0.0, math.inf]) | st.floats(0.1, 20.0))
    return TransmissionCost(c0=draw(_level), tti_slope=draw(_level), tti_capacity=cap,
                            breakdown_jump=draw(_level), wide_slope=draw(_level),
                            wide_exponent=draw(_exponent))


@st.composite
def border_costs(draw):
    return BorderCost(b0=draw(_level), i_free=draw(st.floats(0.1, 10.0)),
                      curvature=draw(_exponent))


def with_kink(x, cap):
    """``x`` plus a finite breakdown point and its float neighbours."""
    if not math.isfinite(cap):
        return x
    extra = [cap, math.nextafter(cap, math.inf)]
    if cap > 0:
        extra.append(math.nextafter(cap, 0.0))
    return np.concatenate([x, extra])


def assert_matches_scalar(got, want):
    """Elementwise agreement bit for bit: the array forms take their powers
    with the C library's ``pow``, as the scalar curves do."""
    np.testing.assert_array_equal(got, np.array(want, dtype=np.float64))


class TestCurveKernels:
    """Each curve's ``cost_arr`` equals its scalar ``cost``, element by
    element; the border curve, which has no ``cost_arr``, is costed in
    ``simulate`` by its scalar ``cost``."""

    @_oracle
    @given(ct=transmission_costs())
    def test_transmission(self, ct):
        x = with_kink(np.linspace(0.0, 40.0, 81), ct.tti_capacity)
        got = ct.cost_arr(x)
        assert_matches_scalar(got, [ct.cost(v) for v in x.tolist()])

    @_oracle
    @given(ct=transmission_costs())
    def test_transmission_takes_2d_input(self, ct):
        x = with_kink(np.linspace(0.0, 40.0, 81), ct.tti_capacity)
        grid = np.stack([x, x[::-1]])
        got = ct.cost_arr(grid)
        assert got.shape == grid.shape
        assert_matches_scalar(got, [[ct.cost(v) for v in row] for row in grid.tolist()])

    @pytest.mark.parametrize("load", [3.0, 12.0, np.float64(12.0), np.array(12.0)])
    def test_scalar_load(self, load):
        # a scalar on either side of a finite capacity gives a 0-d result
        ct = TransmissionCost(1.0, 2.0, tti_capacity=5.0, breakdown_jump=4.0,
                              wide_slope=0.5, wide_exponent=2.0)
        assert np.shape(ct.cost_arr(load)) == ()
        assert float(ct.cost_arr(load)) == ct.cost(float(load))
        for co in (OutbreakCost(0.5, 2.0), OutbreakCost(0.0, 2.0)):
            assert np.shape(co.cost_arr(load)) == ()
            assert float(co.cost_arr(load)) == co.cost(float(load))

    @_oracle
    @given(cb=border_costs())
    def test_border(self, cb):
        # the border curve has no array form: simulate costs each day's
        # screened imports with the scalar cost, bit for bit
        screening = np.linspace(0.0, 1.0, 101)
        params = DynamicsParams(2.5, 0.5, 1.0)
        schedule = PolicySchedule((1.0,) * 101, tuple(screening.tolist()), params)
        curves = CostCurveSet(TransmissionCost(1.0), cb, OutbreakCost())
        got = simulate(schedule, 0.0, curves, cb.i_free).border_costs
        assert got.tolist() == [cb.cost(cb.i_free * f) for f in screening.tolist()]

    @_oracle
    @given(co=st.builds(OutbreakCost, per_case=_level, exponent=_exponent))
    def test_outbreak(self, co):
        x = np.linspace(0.0, 50.0, 101)
        assert_matches_scalar(co.cost_arr(x), [co.cost(v) for v in x.tolist()])


def python_recurrence(x0, r_seq, imports_seq, alpha):
    cases = [x0]
    for r, imports in zip(r_seq, imports_seq):
        cases.append(r * cases[-1] + alpha * imports)
    return cases


@_oracle
@given(x0=st.floats(0.0, 100.0), alpha=st.floats(1.0, 3.0), threat=st.floats(0.0, 5.0),
       days=st.lists(st.tuples(st.floats(0.0, 2.5), st.floats(0.0, 1.0)), max_size=60))
def test_simulate_cases_matches_python_recurrence(x0, alpha, threat, days):
    # the day's imports are the threat times its screening; a run past
    # RUNAWAY_CASES fails
    params = DynamicsParams(2.5, 0.0, 1.0)
    schedule = PolicySchedule(tuple(r for r, _ in days), tuple(f for _, f in days), params)
    curves = CostCurveSet(TransmissionCost(1.0), BorderCost(1.0, 5.0), OutbreakCost(),
                          import_multiplier=alpha)
    want = python_recurrence(x0, schedule.reproduction,
                             [threat * f for f in schedule.screening], alpha)
    if max(want) > RUNAWAY_CASES:
        with pytest.raises(NumericalFailure, match="runaway epidemic"):
            simulate(schedule, x0, curves, threat)
    else:
        assert simulate(schedule, x0, curves, threat).cases.tolist() == want


def grid_rows(rs, horizon):
    """``(first_code, second_code, switch_day)`` per row, in the order the
    scan documents; the codes index ``rs``."""
    codes = range(len(rs))
    rows = [(i, i, horizon) for i in codes]
    rows += [(i, j, s) for i in codes for j in codes if rs[i] != rs[j]
             for s in range(1, horizon)]
    return rows


def random_grid(rng, values):
    """``(r_min, r0, r_step)`` of a random grid of about ``values`` values,
    all short decimals, so no grid value rounds past ``r0``; ``r_min`` is at
    most 1, so that the scan's start level is its own reachable target."""
    r_min = round(float(rng.uniform(0.0, 1.0)), 2)
    r0 = round(float(rng.uniform(r_min + 1.0, 3.0)), 2)
    span = r0 - r_min
    return r_min, r0, round(float(rng.uniform(span / values, span / (values - 1.5))), 3)


def scan_and_check(grid, horizon, x0, ct_params, co_params, exponent=1.0):
    """Run the scan over the R grid ``grid = (r_min, r0, r_step)``, with the
    start level as the target; check every row, bit for bit, against
    ``python_recurrence`` and the curve formulas summed day by day."""
    r_min, r0, r_step = grid
    params = DynamicsParams(r0, r_min, exponent)
    ct, co = TransmissionCost(*ct_params), OutbreakCost(*co_params)
    curves = CostCurveSet(ct, BorderCost(1.0, 1.0), co)
    scan = K.ScheduleScan(x0, x0, horizon, curves, params, r_step)
    rs, got = scan.r_grid, scan.rows(0, scan.n)
    first, second, switch = got[:3]
    rows = grid_rows(rs.tolist(), horizon)
    assert (first.dtype, second.dtype, switch.dtype) == (np.int16, np.int16, np.int32)
    assert list(zip(first.tolist(), second.tolist(), switch.tolist())) == rows
    want = [], [], []
    for i, j, s in rows:
        r = np.where(np.arange(horizon) < s, rs[i], rs[j])
        cases = np.array(python_recurrence(x0, r.tolist(), [0.0] * horizon, 1.0))
        live = cases[:horizon]
        daily = ct.cost_arr(live) * params.weight(r) + co.cost_arr(live)
        want[0].append(np.cumsum(daily)[-1])   # cumsum adds in sequence
        want[1].append(cases.max())
        want[2].append(cases[-1])
    got = got.total_cost, got.max_cases, got.final_cases
    for name, a, b in zip(("totals", "max_cases", "final_cases"), got, want):
        np.testing.assert_array_equal(a, np.array(b), err_msg=name)
    return got


class TestTwoSegmentCosts:
    """The prefix-sharing schedule scan, row by row, against the recurrence."""

    def test_random_schedules(self):
        rng = np.random.default_rng(5)
        scan_and_check(random_grid(rng, 6), 25, 30.0, random_ct_params(rng), (0.5, 1.3),
                       exponent=float(rng.uniform(0.8, 2.0)))

    def test_matches_single_trajectory(self):
        # each row equals simulate() of its schedule with no travel channel
        rng = np.random.default_rng(6)
        r_min, r0, r_step = random_grid(rng, 4)
        params = DynamicsParams(r0, r_min, 1.0)
        curves = CostCurveSet(TransmissionCost(1.0, 0.3, 50.0, 5.0, 0.8, 1.5),
                              BorderCost(1.0, 1.0), OutbreakCost(1.0, 1.0))
        scan = K.ScheduleScan(80.0, 80.0, 20, curves, params, r_step)
        rs, got = scan.r_grid, scan.rows(0, scan.n)
        totals, max_cases, finals = got.total_cost, got.max_cases, got.final_cases
        for i, (first, second, s) in enumerate(grid_rows(rs.tolist(), 20)):
            r1, r2 = float(rs[first]), float(rs[second])
            schedule = PolicySchedule((r1,) * s + (r2,) * (20 - s), (1.0,) * 20, params)
            traj = simulate(schedule, 80.0, curves)
            assert totals[i] == traj.cumulative_cost
            assert max_cases[i] == np.asarray(traj.cases).max()
            assert finals[i] == traj.final_cases

    def test_horizon_one(self):
        # only the constant schedules: one day at x0 each
        totals, max_cases, finals = scan_and_check(
            (0.5, 2.5, 0.5), 1, 12.0, (1.0, 0.3, 5.0, 2.0, 0.8, 1.5), (1.0, 1.0))
        assert totals.shape == (5,)
        assert finals.tolist() == [6.0, 12.0, 18.0, 24.0, 30.0]

    def test_one_value_grid(self):
        totals, _, finals = scan_and_check((0.5, 2.5, 5.0), 10, 50.0,
                                           (1.0, 0.0, 0.0, 0.0, 1.0, 2.0), (0.5, 1.0))
        assert totals.shape == (1,) and finals[0] == 50.0 * 0.5**10

    def test_zero_start(self):
        # zero cases are absorbing: every row ends and peaks at 0
        _, max_cases, finals = scan_and_check((0.5, 2.5, 1.0), 8, 0.0,
                                              (1.0, 0.3, 5.0, 2.0, 0.8, 1.5),
                                              (1.0, 1.0), exponent=2.0)
        assert not np.any(max_cases) and not np.any(finals)

    def test_runaway_rows(self):
        _, max_cases, _ = scan_and_check((0.5, 2.5, 0.5), 40, 1e6,
                                         (1.0, 0.3, 5.0, 2.0, 0.8, 1.5), (1.0, 1.5))
        runaway = max_cases > RUNAWAY_CASES
        assert np.any(runaway) and not np.all(runaway)


def python_scan(rs, horizon, x0, curves, params):
    """``(total, peak, final)`` of each row in the scan's order, by a
    pure-Python day-by-day recurrence that costs each day with the scalar
    ``cost`` of the curves and the scalar ``weight``."""
    ct, co = curves.transmission, curves.outbreak
    out = []
    for i, j, s in grid_rows(rs, horizon):
        x, total, peak = x0, 0.0, x0
        for t in range(horizon):
            r = rs[i] if t < s else rs[j]
            total += ct.cost(x) * params.weight(r) + co.cost(x)
            x = r * x
            peak = max(peak, x)
        out.append((total, peak, x))
    return out


@_oracle
@given(ct=transmission_costs(), co=st.builds(OutbreakCost, per_case=_level, exponent=_exponent),
       grid=st.tuples(st.integers(0, 100), st.integers(100, 200), st.integers(300, 900)),
       exponent=st.floats(0.5, 2.5), horizon=st.integers(1, 10), x0=st.floats(0.0, 100.0))
def test_scan_rows_match_python_recurrence(ct, co, grid, exponent, horizon, x0):
    # short decimals: no grid value lies past r0, whose weight would be the
    # power of a negative base; no case level overflows
    r_min = grid[0] / 100
    params = DynamicsParams(round(r_min + grid[1] / 100, 2), r_min, exponent)
    curves = CostCurveSet(ct, BorderCost(1.0, 1.0), co)
    scan = K.ScheduleScan(x0, x0, horizon, curves, params, grid[2] / 1000)
    rows = scan.rows(0, scan.n)
    want = python_scan(scan.r_grid.tolist(), horizon, x0, curves, params)
    got = zip(rows.total_cost.tolist(), rows.max_cases.tolist(), rows.final_cases.tolist())
    assert list(got) == want


class TestScanBlocks:
    """The suffix scan over blocks of pairs gives the unblocked figures bit
    for bit, whatever the block size and wherever the last block ends."""

    HORIZON = 9   # 8 switch days a pair

    @pytest.mark.parametrize("pairs_per_block,spare_cells", [
        (1, 0), (1, 7), (2, 0), (2, 5), (3, 0), (3, 7), (7, 0)])
    def test_block_boundaries(self, monkeypatch, pairs_per_block, spare_cells):
        # five grid values make 20 pairs: 3 and 7 a block leave a partial
        # last block; spare cells short of one more pair change nothing
        days = self.HORIZON - 1
        monkeypatch.setattr(K, "_BLOCK_CELLS", pairs_per_block * days + spare_cells)
        assert K._BLOCK_CELLS // days == pairs_per_block
        scan_and_check((0.5, 2.5, 0.5), self.HORIZON, 40.0,
                       (1.0, 0.3, 5.0, 2.0, 0.8, 1.5), (1.0, 1.3), exponent=1.7)

    def test_block_smaller_than_one_pair(self, monkeypatch):
        # fewer cells than switch days still scan one pair a block
        monkeypatch.setattr(K, "_BLOCK_CELLS", 3)
        scan_and_check((0.5, 2.5, 1.0), 30, 20.0, (1.0, 0.3, 5.0, 2.0, 0.8, 1.5),
                       (0.5, 1.0))

    @pytest.mark.parametrize("cells", [1, 2, 3])
    def test_horizon_one_and_one_value_grid(self, monkeypatch, cells):
        monkeypatch.setattr(K, "_BLOCK_CELLS", cells)
        scan_and_check((0.5, 2.5, 1.0), 1, 12.0, (1.0, 0.3, 5.0, 2.0, 0.8, 1.5), (1.0, 1.0))
        scan_and_check((1.0, 2.5, 5.0), 7, 12.0, (1.0, 0.3, 5.0, 2.0, 0.8, 1.5), (1.0, 1.0))


def test_rows_code_large_grids_in_int32():
    # 2**15 grid values over one day: constants only, no pairs mask built
    step = 2.0 / (2**15 - 1)
    curves = CostCurveSet(TransmissionCost(1.0), BorderCost(1.0, 1.0), OutbreakCost(1.0))
    scan = K.ScheduleScan(0.0, 0.0, 1, curves, DynamicsParams(2.5, 0.5, 1.0), step)
    first, second, switch = scan.rows(0, 2**15)[:3]
    assert (first.dtype, second.dtype, switch.dtype) == (np.int32, np.int32, np.int32)
    assert first.tolist() == second.tolist() == list(range(2**15))
    assert np.all(switch == 1)
    # the same grid less its last value
    scan = K.ScheduleScan(0.0, 0.0, 1, curves, DynamicsParams(2.5 - step, 0.5, 1.0), step)
    first = scan.rows(0, 2**15 - 1).first_code
    assert first.dtype == np.int16 and first[-1] == 2**15 - 2
