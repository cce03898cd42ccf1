import numpy as np
import pytest

from epicost.costs import (BorderCost, CostCurveSet, OutbreakCost,
                           TransmissionCost)
from epicost import _kernels, trajectory
from epicost.errors import DomainError, NumericalFailure
from epicost.trajectory import (MAX_SCHEDULE_DAYS, MAX_SCHEDULES, DynamicsParams,
                                PolicySchedule, compare_monotone_vs_relax, daily_cost,
                                r_grid, schedule_count, schedule_days, simulate,
                                steady_state_holding_cost, step)

PARAMS = DynamicsParams()


class TestStep:
    def test_absorbing_zero(self):
        assert step(0.0, 2.5, 0.0, 1.0) == 0.0

    def test_halving(self):
        assert step(100.0, 0.5, 0.0, 1.0) == pytest.approx(50.0)

    def test_import_contribution(self):
        assert step(10.0, 1.0, 1.0, 2.0) == pytest.approx(12.0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            step(-1.0, 0.5, 0.0, 1.0)


class TestDailyCost:
    def test_laissez_faire_floor(self, quad_set):
        # no measures, open borders at the free-travel level, zero cases
        cost = daily_cost(quad_set, 0.0, PARAMS.r0, 1.0,
                          quad_set.border.i_free, PARAMS)
        assert cost == 0.0

    def test_maximal_policy_at_zero_cases(self, quad_set):
        cost = daily_cost(quad_set, 0.0, PARAMS.r_min, 0.0, 4.0, PARAMS)
        assert cost == pytest.approx(3.0)  # c0 + b0

    def test_mixed_point(self):
        curves = CostCurveSet(TransmissionCost(1.0, 1.0),
                              BorderCost(2.0, 4.0, 1.0), OutbreakCost(), 1.0)
        # g(1.5) = 0.5; border at imports 1 costs 1.5
        cost = daily_cost(curves, 10.0, 1.5, 0.25, 4.0, PARAMS)
        assert cost == pytest.approx(7.0)

    def test_reproduction_out_of_bounds(self, quad_set):
        with pytest.raises(DomainError):
            daily_cost(quad_set, 0.0, 3.0, 1.0, 0.0, PARAMS)
        with pytest.raises(DomainError):
            daily_cost(quad_set, 0.0, 0.4, 1.0, 0.0, PARAMS)


class TestSimulate:
    def test_zero_start_stays_zero(self, quad_set):
        sched = PolicySchedule.constant(2.5, 1.0, 10, PARAMS)
        traj = simulate(sched, 0.0, quad_set, None)
        assert np.all(traj.cases == 0.0)

    def test_repeated_halving(self, quad_set):
        sched = PolicySchedule.constant(0.5, 1.0, 3, PARAMS)
        traj = simulate(sched, 100.0, quad_set, None)
        assert traj.cases == pytest.approx([100.0, 50.0, 25.0, 12.5])

    def test_cumulative_equals_sum(self, quad_set):
        sched = PolicySchedule.constant(0.7, 0.5, 40, PARAMS)
        traj = simulate(sched, 50.0, quad_set, 2.0)
        assert traj.cumulative_cost == pytest.approx(traj.total_costs.sum(),
                                                     rel=1e-9)
        assert np.all(traj.cases >= 0.0)

    def test_border_term_present_only_with_channel(self, quad_set):
        sched = PolicySchedule.constant(0.5, 0.0, 5, PARAMS)
        autarky = simulate(sched, 10.0, quad_set, None)
        channel = simulate(sched, 10.0, quad_set, 2.0)
        assert np.all(autarky.border_costs == 0.0)
        # fully screened travel still pays the closure cost b0
        assert channel.border_costs == pytest.approx([2.0] * 5)

    def test_imports_feed_cases(self, quad_set):
        sched = PolicySchedule.constant(1.0, 1.0, 4, PARAMS)
        traj = simulate(sched, 0.0, quad_set, 1.5)
        assert traj.cases == pytest.approx([0.0, 1.5, 3.0, 4.5, 6.0])

    def test_linear_superposition_in_imports(self, quad_set):
        rng = np.random.default_rng(2)
        reps = tuple(float(r) for r in rng.uniform(0.5, 2.5, 20))
        sched = PolicySchedule(reps, (1.0,) * 20, PARAMS)
        base = simulate(sched, 7.0, quad_set, None).cases
        unit = simulate(sched, 7.0, quad_set, 1.0).cases
        lam = 2.0
        scaled = simulate(sched, 7.0, quad_set, lam).cases
        assert scaled == pytest.approx(base + lam * (unit - base), rel=1e-9)

    def test_runaway_flagged(self, quad_set):
        sched = PolicySchedule.constant(2.5, 1.0, 40, PARAMS)
        with pytest.raises(NumericalFailure):
            simulate(sched, 1e6, quad_set, None)

    def test_screened_imports_must_stay_in_border_domain(self, quad_set):
        sched = PolicySchedule.constant(0.5, 1.0, 3, PARAMS)
        with pytest.raises(DomainError):
            simulate(sched, 0.0, quad_set, 5.0)  # i_free is 4

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            PolicySchedule((0.5, 3.0), (1.0, 1.0), PARAMS)
        with pytest.raises(DomainError):
            PolicySchedule((0.5,), (1.0, 1.0), PARAMS)
        with pytest.raises(DomainError):
            PolicySchedule((0.5,), (1.5,), PARAMS)


class TestHoldingCost:
    def test_zero_level_costs_nothing(self, quad_set):
        assert steady_state_holding_cost(quad_set, 0.0, PARAMS) == 0.0

    def test_positive_level_costs(self, quad_set):
        # hold at R=1: g = 0.75, c_T(5) = 26, outbreak 2.5
        assert steady_state_holding_cost(quad_set, 5.0, PARAMS) == pytest.approx(22.0)

    def test_minimized_at_zero_on_grid(self, quad_set):
        grid = np.linspace(0.0, 100.0, 1000)
        costs = [steady_state_holding_cost(quad_set, float(x), PARAMS) for x in grid]
        assert costs[0] == 0.0
        assert all(c > 0 for c in costs[1:])


class TestScheduleComparison:
    def test_relax_then_tighten_loses_to_monotone(self, quad_set):
        cmp_ = compare_monotone_vs_relax(100.0, 1.0, 30, quad_set, PARAMS)
        assert cmp_.monotone_beats_relax_then_tighten
        idx = cmp_.cheapest_relax_then_tighten_index
        assert idx >= 0
        assert (cmp_.total_cost[idx]
                > cmp_.total_cost[cmp_.best_monotone_index])

    def test_direct_relax_vs_matched_monotone(self, quad_set):
        # grow for 10 days then crash, against the constant-R schedule
        # reaching the same endpoint: the relax route costs more
        relax = PolicySchedule((1.1,) * 10 + (0.5,) * 20, (1.0,) * 30, PARAMS)
        traj_relax = simulate(relax, 100.0, quad_set, None)
        r_const = (traj_relax.final_cases / 100.0) ** (1 / 30)
        const = PolicySchedule.constant(r_const, 1.0, 30, PARAMS)
        traj_const = simulate(const, 100.0, quad_set, None)
        assert traj_const.final_cases == pytest.approx(traj_relax.final_cases,
                                                       rel=1e-9)
        assert traj_const.cumulative_cost < traj_relax.cumulative_cost

    def test_free_relaxation_makes_end_coasting_cheapest(self, quad_set):
        # Because g(r0) = 0, a schedule that crashes deep and then coasts
        # upward (still ending under the target) pays nothing on its tail and
        # undercuts every monotone schedule. Such schedules contain growth
        # but never tighten afterwards.
        cmp_ = compare_monotone_vs_relax(100.0, 1.0, 30, quad_set, PARAMS)
        assert not cmp_.monotone_dominates
        best = cmp_.best_index
        assert cmp_.contains_growth[best]
        assert not cmp_.relax_then_tighten[best]
        assert cmp_.r_second[best] > 1.0 >= cmp_.r_first[best]

    def test_single_day_horizon_degenerate(self, quad_set):
        cmp_ = compare_monotone_vs_relax(1.0, 0.5, 1, quad_set, PARAMS)
        assert cmp_.degenerate
        assert np.all(cmp_.switch_day == 1)  # constants only

    def test_equal_start_and_target_reports_holding(self, quad_set):
        cmp_ = compare_monotone_vs_relax(10.0, 10.0, 5, quad_set, PARAMS)
        best = cmp_.best_index
        assert cmp_.final_cases[best] <= 10.0
        assert cmp_.total_cost[best] > 0

    def test_infeasible_target_rejected(self, quad_set):
        with pytest.raises(DomainError):
            compare_monotone_vs_relax(100.0, 1e-12, 3, quad_set, PARAMS)

    def test_target_above_start_rejected(self, quad_set):
        with pytest.raises(DomainError):
            compare_monotone_vs_relax(1.0, 2.0, 10, quad_set, PARAMS)

    def test_runaway_schedules_marked_infeasible(self, quad_set):
        cmp_ = compare_monotone_vs_relax(1e9, 1.0, 30, quad_set, PARAMS)
        assert np.any(cmp_.runaway)
        assert not np.any(cmp_.feasible & cmp_.runaway)


class TestScheduleGridAndCap:
    @pytest.mark.parametrize("bounds", [(2.5, 0.5), (1.8, 0.0), (3.0, 0.9)])
    def test_grid_is_the_filtered_candidates(self, bounds):
        # the comparator used to build round(span / step) + 1 candidates and
        # drop those past r0; r_grid sizes itself without the extra one
        params = DynamicsParams(*bounds)
        for r_step in np.linspace(0.0137, 0.95, 300).tolist() + [0.1, 0.05, 0.025, 0.3]:
            n_r = int(round((params.r0 - params.r_min) / r_step)) + 1
            rs = np.round(params.r_min + np.arange(n_r) * r_step, 12)
            want = rs[rs <= params.r0 + 1e-12]
            got = r_grid(params, r_step)
            assert got.dtype == want.dtype and np.array_equal(got, want), r_step

    @pytest.mark.parametrize("horizon,r_step", [(1, 0.1), (7, 0.3), (30, 0.1), (5, 3.0)])
    def test_count_matches_rows(self, quad_set, horizon, r_step):
        cmp_ = compare_monotone_vs_relax(100.0, 50.0, horizon, quad_set, PARAMS,
                                         r_step=r_step)
        assert cmp_.n_schedules == schedule_count(len(r_grid(PARAMS, r_step)), horizon)

    @pytest.mark.parametrize("r_step", [0.0, -0.1, float("nan")])
    def test_step_must_be_positive(self, quad_set, r_step):
        # a step <= 0 used to divide by zero or count a negative grid
        with pytest.raises(DomainError, match="r_step must be > 0"):
            compare_monotone_vs_relax(100.0, 1.0, 30, quad_set, PARAMS, r_step=r_step)

    def test_year_at_fine_step_is_over_the_cap(self):
        # counted only: running it would allocate gigabytes
        assert schedule_count(len(r_grid(PARAMS, 0.01)), 365) == 14_633_001
        assert 14_633_001 > MAX_SCHEDULES

    @pytest.mark.parametrize("cap", [12_200, 12_201])
    def test_cap_checked_before_anything_is_built(self, quad_set, monkeypatch, cap):
        # 21 grid values over 30 days: 21 + 21 * 20 * 29 = 12,201 schedules
        def unreachable(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(trajectory, "MAX_SCHEDULES", cap)
        if cap < 12_201:
            monkeypatch.setattr(trajectory, "r_grid", unreachable)
            monkeypatch.setattr(_kernels, "two_segment_costs", unreachable)
            with pytest.raises(DomainError, match="12,201 schedules .* cap of 12,200"):
                compare_monotone_vs_relax(100.0, 1.0, 30, quad_set, PARAMS)
        else:
            cmp_ = compare_monotone_vs_relax(100.0, 1.0, 30, quad_set, PARAMS)
            assert cmp_.n_schedules == cap

    @pytest.mark.parametrize("n_r,horizon", [(1, 1), (1, 9), (2, 1), (3, 2), (21, 30)])
    def test_schedule_days_count_the_scan(self, n_r, horizon):
        # each constant row runs every day; a row switching on day s adds its
        # horizon - s suffix days to a prefix that is costed once
        rs = np.arange(n_r, dtype=np.float64)
        _, _, switch = _kernels.two_segment_rows(rs, horizon)
        assert schedule_days(n_r, horizon) == n_r * horizon + int(
            np.sum(horizon - switch[n_r:]))

    def test_schedule_days_of_the_measured_scans(self):
        # two values over 6,000 days; the largest and the pinned schedule
        # benchmarks (steps 0.025 and 0.05 over 60 days)
        assert schedule_days(2, 6000) == 36_006_000
        assert schedule_days(len(r_grid(PARAMS, 0.025)), 60) == 11_474_460
        assert schedule_days(len(r_grid(PARAMS, 0.05)), 60) == 2_905_260
        assert 11_474_460 < MAX_SCHEDULE_DAYS < schedule_days(2, 100_000)

    @pytest.mark.parametrize("cap", [183_329, 183_330])
    def test_schedule_days_cap_checked_before_anything_is_built(self, quad_set,
                                                                monkeypatch, cap):
        # 21 grid values over 30 days: 21 * 30 + 420 * 30 * 29 / 2 = 183,330
        def unreachable(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(trajectory, "MAX_SCHEDULE_DAYS", cap)
        if cap < 183_330:
            monkeypatch.setattr(trajectory, "r_grid", unreachable)
            monkeypatch.setattr(_kernels, "two_segment_costs", unreachable)
            with pytest.raises(DomainError,
                               match="183,330 schedule-days .* cap of 183,329"):
                compare_monotone_vs_relax(100.0, 1.0, 30, quad_set, PARAMS)
        else:
            cmp_ = compare_monotone_vs_relax(100.0, 1.0, 30, quad_set, PARAMS)
            assert cmp_.n_schedules == 12_201

