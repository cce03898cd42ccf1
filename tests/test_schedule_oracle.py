"""The schedule comparator against the enumeration and dense kernel it replaced."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicost.errors import NumericalFailure
from epicost.fixtures import bundled_curve_sets, quadratic_set
from epicost.trajectory import (RUNAWAY_CASES, DynamicsParams, ScheduleComparison,
                                compare_monotone_vs_relax)


def reference_dense_costs(R, x0, params, curves):
    """Schedule costs from a dense n-by-horizon matrix of daily R values."""
    n, T = R.shape
    r0, r_min, g_exp = params.r0, params.r_min, params.stringency_exponent
    ct, co = curves.transmission, curves.outbreak
    denom = r0 - r_min
    x = np.full(n, x0, dtype=np.float64)
    totals = np.zeros(n)
    max_cases = np.full(n, x0, dtype=np.float64)
    for t in range(T):
        g = np.float_power((r0 - R[:, t]) / denom, g_exp)
        totals += ct.cost_arr(x) * g + co.per_case * np.float_power(x, co.exponent)
        x = R[:, t] * x
        np.maximum(max_cases, x, out=max_cases)
    return totals, max_cases, x


def reference_compare(x0, x_target, horizon, curves, params, r_step):
    """Triple-loop enumeration, dense R and the comparator's verdicts."""
    n_r = int(round((params.r0 - params.r_min) / r_step)) + 1
    rs = np.round(params.r_min + np.arange(n_r) * r_step, 12)
    rs = rs[rs <= params.r0 + 1e-12]

    rows_c1, rows_c2, rows_s = [], [], []
    for i in range(len(rs)):
        rows_c1.append(i)
        rows_c2.append(i)
        rows_s.append(horizon)
    for i, r1 in enumerate(rs):
        for j, r2 in enumerate(rs):
            if r1 == r2:
                continue
            for s in range(1, horizon):
                rows_c1.append(i)
                rows_c2.append(j)
                rows_s.append(s)

    first_code = np.array(rows_c1, dtype=np.int16)
    second_code = np.array(rows_c2, dtype=np.int16)
    r_first = np.array([rs[i] for i in rows_c1])
    r_second = np.array([rs[j] for j in rows_c2])
    switch = np.array(rows_s, dtype=np.int32)
    n = r_first.shape[0]

    R = np.empty((n, horizon))
    for i in range(n):
        R[i, :switch[i]] = r_first[i]
        R[i, switch[i]:] = r_second[i]

    totals, max_cases, finals = reference_dense_costs(R, x0, params, curves)

    runaway = max_cases > RUNAWAY_CASES
    feasible = (finals <= x_target) & ~runaway
    if x0 > 0:
        first_grows = (r_first > 1.0) & (switch >= 1)
        mid_positive = (r_first > 0.0) | (switch == 0)
        second_grows = (r_second > 1.0) & (switch < horizon) & mid_positive
        contains_growth = first_grows | second_grows
        relax_then_tighten = first_grows & (r_second < r_first) & (switch < horizon)
    else:
        contains_growth = np.zeros(n, dtype=bool)
        relax_then_tighten = np.zeros(n, dtype=bool)
    if not np.any(feasible):
        raise NumericalFailure("no enumerated schedule reaches the target")

    def argmin_masked(mask):
        if not np.any(mask):
            return -1
        idx = np.nonzero(mask)[0]
        return int(idx[np.argmin(totals[idx])])

    best_monotone = argmin_masked(feasible & ~contains_growth)
    growth = argmin_masked(feasible & contains_growth)
    rtt = argmin_masked(feasible & relax_then_tighten)

    def beaten(challenger):
        if challenger < 0 or best_monotone < 0:
            return best_monotone >= 0
        return bool(totals[challenger] >= totals[best_monotone])

    return ScheduleComparison(
        horizon=horizon, x0=x0, x_target=x_target, r_step=r_step,
        degenerate=horizon == 1,
        r_grid=rs, first_code=first_code, second_code=second_code, switch_day=switch,
        total_cost=totals, final_cases=finals, max_cases=max_cases,
        feasible=feasible, runaway=runaway, contains_growth=contains_growth,
        relax_then_tighten=relax_then_tighten,
        best_index=argmin_masked(feasible), best_monotone_index=best_monotone,
        cheapest_growth_index=growth, cheapest_relax_then_tighten_index=rtt,
        monotone_dominates=beaten(growth),
        monotone_beats_relax_then_tighten=beaten(rtt))


def outcome(fn, *args):
    """Result of ``fn``, or ``NumericalFailure`` if it raised one."""
    try:
        return fn(*args)
    except NumericalFailure:
        return NumericalFailure


def assert_same(got, want):
    """Every array equal in dtype and value (NaN equal to NaN), every scalar
    equal; the R values of each row too, not only their grid codes."""
    if want is NumericalFailure or got is NumericalFailure:
        assert got is want
        return
    names = list(ScheduleComparison._fields)
    for name in names + ["r_first", "r_second"]:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=b.dtype.kind == "f"), name
        else:
            assert a == b, name


def check(x0, target_share, horizon, curves, params, r_step):
    reachable = x0 * params.r_min**horizon
    x_target = reachable + target_share * (x0 - reachable)
    args = (x0, x_target, horizon, curves, params, r_step)
    want = outcome(reference_compare, *args)
    assert_same(outcome(compare_monotone_vs_relax, *args), want)
    return want


_curves = st.sampled_from(sorted(bundled_curve_sets().items())).map(lambda kv: kv[1])
_bounds = st.sampled_from([(2.5, 0.5), (1.8, 0.0), (3.0, 0.9)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x0=st.floats(1e-3, 1e6),
       target_share=st.floats(0.0, 1.0),
       horizon=st.integers(1, 40),
       curves=_curves,
       bounds=_bounds,
       exponent=st.floats(0.8, 2.0),
       r_step=st.floats(0.05, 0.7))
@example(x0=100.0, target_share=0.01, horizon=12, curves=quadratic_set(),
         bounds=(2.5, 0.5), exponent=1.0, r_step=0.3)   # 0.3 does not divide 2.0
@example(x0=0.0, target_share=0.0, horizon=5, curves=quadratic_set(),
         bounds=(1.8, 0.0), exponent=2.0, r_step=0.45)
def test_comparator_matches_reference(x0, target_share, horizon, curves, bounds,
                                      exponent, r_step):
    r0, r_min = bounds
    check(x0, target_share, horizon, curves, DynamicsParams(r0, r_min, exponent),
          r_step)


def test_single_day_horizon():
    got = check(50.0, 0.5, 1, quadratic_set(), DynamicsParams(), 0.1)
    assert got.degenerate and np.all(got.switch_day == 1)
    assert got.n_schedules == 21


def test_single_value_grid():
    # a step wider than r0 - r_min leaves r_min as the only grid value
    got = check(50.0, 0.5, 10, quadratic_set(), DynamicsParams(), 3.0)
    assert got.n_schedules == 1 and got.r_first[0] == got.r_second[0] == 0.5


def test_runaway_rows():
    got = check(1e6, 0.5, 40, quadratic_set(), DynamicsParams(), 0.25)
    assert np.any(got.runaway) and not np.all(got.runaway)
    assert not np.any(got.feasible & got.runaway)


def test_memory_stays_linear_in_schedules():
    # 96,801 schedules over 60 days: a dense float64 R would be 46 MB
    tracemalloc.start()
    try:
        got = compare_monotone_vs_relax(100.0, 1.0, 60, quadratic_set(),
                                        DynamicsParams(), r_step=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_schedules == 96_801
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


# tracemalloc peak of the comparator at 382,401 schedules over 60 days:
# 42.7 bytes a schedule, 36 of them the result (costs and cases 24, grid
# codes and switch days 8, flags 4); the unblocked scan with float R
# columns peaked at 65.7
PEAK_BYTES_PER_SCHEDULE = 48


def test_memory_guard_bytes_per_schedule():
    tracemalloc.start()
    try:
        got = compare_monotone_vs_relax(100.0, 1.0, 60, quadratic_set(),
                                        DynamicsParams(), r_step=0.025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_schedules == 382_401
    held = sum(getattr(got, name).nbytes for name in type(got)._fields
               if isinstance(getattr(got, name), np.ndarray))
    assert held == 36 * got.n_schedules + got.r_grid.nbytes
    per_schedule = peak / got.n_schedules
    assert per_schedule < PEAK_BYTES_PER_SCHEDULE, f"{per_schedule:.1f} B a schedule"


def test_one_day_horizon_builds_no_pair_mask():
    # 2,001 grid values over one day are 2,001 constant schedules; an
    # n_r-by-n_r pair mask and its indices took 128 MB here
    params = DynamicsParams()
    tracemalloc.start()
    try:
        got = compare_monotone_vs_relax(100.0, 60.0, 1, quadratic_set(), params,
                                        r_step=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_schedules == 2_001
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"
    assert_same(got, reference_compare(100.0, 60.0, 1, quadratic_set(), params, 0.001))


# tracemalloc peak of the comparator at 500,001 one-day schedules: 73.0
# bytes a schedule, with the prefix pass run in the output columns; its
# (horizon + 1, n_r) prefix history made it 97.0
ONE_DAY_PEAK_BYTES_PER_SCHEDULE = 80


def test_one_day_horizon_keeps_no_prefix_history():
    tracemalloc.start()
    try:
        got = compare_monotone_vs_relax(100.0, 60.0, 1, quadratic_set(), DynamicsParams(),
                                        r_step=4e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_schedules == 500_001
    per_schedule = peak / got.n_schedules
    assert per_schedule < ONE_DAY_PEAK_BYTES_PER_SCHEDULE, f"{per_schedule:.1f} B a schedule"
