import math
import warnings

import numpy as np
import pytest

from epicost.costs import (BorderCost, CostCurveSet, OutbreakCost,
                           TransmissionCost, validate_curve_set)
from epicost.errors import DomainError, KinkAmbiguityError


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2 * h)


class TestTransmissionCost:
    def test_baseline_at_zero(self):
        curve = TransmissionCost(c0=1.7, tti_slope=0.4, tti_capacity=10.0)
        assert curve.cost(0.0) == pytest.approx(1.7)

    def test_linear_regime(self):
        curve = TransmissionCost(c0=1.0, tti_slope=0.5, tti_capacity=10.0)
        assert curve.cost(4.0) == pytest.approx(3.0)

    def test_piecewise_past_breakdown(self):
        curve = TransmissionCost(c0=1.0, tti_slope=0.5, tti_capacity=10.0,
                                 breakdown_jump=2.0, wide_slope=1.0, wide_exponent=2.0)
        assert curve.cost(12.0) == pytest.approx(12.0)  # 1 + 5 + 2 + 4

    def test_negative_cases_rejected(self):
        with pytest.raises(DomainError):
            TransmissionCost(1.0, 0.5).cost(-0.1)

    def test_marginal_linear_regime(self):
        curve = TransmissionCost(c0=1.0, tti_slope=0.5, tti_capacity=10.0)
        assert curve.marginal(3.0) == pytest.approx(0.5)

    def test_marginal_wide_regime(self):
        curve = TransmissionCost(c0=1.0, tti_slope=0.0, tti_capacity=10.0,
                                 wide_slope=1.0, wide_exponent=2.0)
        assert curve.marginal(12.0) == pytest.approx(4.0)  # 2 (x - 10)

    def test_marginal_at_kink_needs_side(self):
        curve = TransmissionCost(c0=1.0, tti_slope=0.5, tti_capacity=10.0,
                                 wide_slope=1.0, wide_exponent=1.0)
        with pytest.raises(KinkAmbiguityError):
            curve.marginal(10.0)
        assert curve.marginal(10.0, "left") == pytest.approx(0.5)
        assert curve.marginal(10.0, "right") == pytest.approx(1.0)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            TransmissionCost(c0=-1.0)
        with pytest.raises(DomainError):
            TransmissionCost(c0=1.0, wide_exponent=0.5)
        with pytest.raises(DomainError):
            TransmissionCost(c0=math.nan)

    def test_immutable(self):
        curve = TransmissionCost(1.0, 0.5)
        with pytest.raises(AttributeError, match="cannot assign to field 'c0'"):
            curve.c0 = 2.0


class TestBorderCost:
    def test_open_border_free(self):
        curve = BorderCost(b0=2.0, i_free=4.0, curvature=1.0)
        assert curve.cost(4.0) == 0.0

    def test_closure_cost(self):
        assert BorderCost(2.0, 4.0).cost(0.0) == pytest.approx(2.0)

    def test_linear_interior(self):
        assert BorderCost(2.0, 4.0, 1.0).cost(1.0) == pytest.approx(1.5)

    def test_domain(self):
        curve = BorderCost(2.0, 4.0)
        with pytest.raises(DomainError):
            curve.cost(4.5)
        with pytest.raises(DomainError):
            curve.cost(-0.1)

    def test_marginal_linear_at_open(self):
        curve = BorderCost(b0=2.0, i_free=4.0, curvature=1.0)
        assert curve.marginal(4.0) == pytest.approx(-0.5)  # -b0 / i_free

    def test_rescaled_moves_zero_point(self):
        curve = BorderCost(2.0, 4.0, 2.0).rescaled(1.5)
        assert curve.i_free == 1.5
        assert curve.cost(1.5) == 0.0
        assert curve.cost(0.0) == pytest.approx(2.0)

    def test_convexity_second_differences(self):
        for beta in (1.0, 1.5, 2.0, 3.0):
            curve = BorderCost(2.0, 4.0, beta)
            grid = np.linspace(0.0, 4.0, 200)
            vals = [curve.cost(i) for i in grid.tolist()]
            assert np.all(np.diff(vals, 2) >= -1e-12)


class TestOutbreakCost:
    def test_zero_at_zero(self):
        assert OutbreakCost(3.0, 2.0).cost(0.0) == 0.0

    def test_linear(self):
        assert OutbreakCost(3.0, 1.0).cost(2.0) == pytest.approx(6.0)

    def test_quadratic(self):
        assert OutbreakCost(1.0, 2.0).cost(3.0) == pytest.approx(9.0)


class TestBreakdown:
    CURVES = CostCurveSet(TransmissionCost(1.0, 1.0), BorderCost(2.0, 4.0, 1.0),
                          OutbreakCost(3.0, 1.0), 1.0)

    def test_zero_case_floor(self, quad_set):
        assert quad_set.breakdown(0.0, 0.0).total == pytest.approx(3.0)  # c0 + b0

    def test_componentwise_domestic_only(self):
        bd = self.CURVES.breakdown(1.0, 0.0)
        assert (bd.transmission, bd.border, bd.outbreak) == (2.0, 2.0, 3.0)
        assert bd.total == pytest.approx(7.0)
        assert bd.net_total == pytest.approx(1.0)

    def test_componentwise_fully_open(self):
        bd = self.CURVES.breakdown(4.0, 4.0)
        assert bd.transmission == pytest.approx(5.0)
        assert bd.border == 0.0
        assert bd.outbreak == pytest.approx(12.0)
        assert bd.total == pytest.approx(17.0)


class TestOverflow:
    """A scalar ``cost`` overflows to inf, as ``cost_arr`` does, without warning."""

    CURVES = (TransmissionCost(1.0, 2.0, 5.0, 1.0, 3.0, 3.5),
              TransmissionCost(0.5, wide_slope=2.0, tti_capacity=0.0, wide_exponent=7.0),
              OutbreakCost(1.0, 3.0), OutbreakCost(0.25, 41.5))

    @pytest.mark.parametrize("curve", CURVES)
    def test_cost_matches_cost_arr_at_overflowing_loads(self, curve):
        loads = [1e110, 1e200, 1e300, 1.7e308]
        with np.errstate(over="ignore"):
            want = curve.cost_arr(np.array(loads)).tolist()
        assert all(math.isinf(v) for v in want)
        for x, w in zip(loads, want):
            assert curve.cost(x) == w
            assert curve.cost(np.float64(x)) == w

    @pytest.mark.parametrize("curve", CURVES)
    def test_finite_costs_keep_every_bit(self, curve):
        # the spelling before overflow was mapped: ``**`` on the load as given
        if isinstance(curve, OutbreakCost):
            def reference(x):
                return curve.per_case * x**curve.exponent
        else:
            def reference(x):
                if x <= curve.tti_capacity:
                    return curve.c0 + curve.tti_slope * x
                return (curve.c0 + curve.tti_slope * curve.tti_capacity
                        + curve.breakdown_jump
                        + curve.wide_slope * (x - curve.tti_capacity) ** curve.wide_exponent)
        rng = np.random.default_rng(11)
        for x in np.exp(rng.uniform(-20, 14, 2000)).tolist():
            assert curve.cost(x) == reference(x)
            assert curve.cost(np.float64(x)) == reference(np.float64(x))

    # the outbreak curve has no marginal: it is in no objective
    @pytest.mark.parametrize("curve", CURVES[:1])
    def test_marginal_overflows_to_inf(self, curve):
        for x in (1e200, np.float64(1e200), 1.7e308):
            assert curve.marginal(x) == math.inf

    @pytest.mark.parametrize("curve", CURVES[:2])
    def test_finite_marginals_keep_every_bit(self, curve):
        # the spelling before overflow was mapped: ``**`` on the load as given
        def reference(x):
            if x < curve.tti_capacity:
                return curve.tti_slope
            return (curve.wide_slope * curve.wide_exponent
                    * (x - curve.tti_capacity) ** (curve.wide_exponent - 1.0))
        rng = np.random.default_rng(12)
        # the random loads miss the breakdown kink, where a side is needed
        for x in np.exp(rng.uniform(-20, 14, 2000)).tolist():
            assert curve.marginal(x) == reference(x)
            assert curve.marginal(np.float64(x)) == reference(np.float64(x))

    # a zero coefficient times an overflowing power is 0, not 0 * inf = nan
    @pytest.mark.parametrize("curve, level", [
        (OutbreakCost(0.0, 3.0), 0.0),
        (TransmissionCost(1.0, 0.0, 1.0, 0.0, 0.0, 3.0), 1.0),
        (TransmissionCost(2.0, wide_slope=0.0, tti_capacity=0.0, wide_exponent=41.5), 2.0)])
    def test_zero_coefficient_term_is_zero_at_overflowing_loads(self, curve, level):
        loads = [1e110, 1e200, 1.7e308]
        for x in loads:
            assert curve.cost(x) == level
            assert curve.cost(np.float64(x)) == level
            if not isinstance(curve, OutbreakCost):
                assert curve.marginal(x) == 0.0
        # no errstate here: the suite turns a numpy RuntimeWarning into an error
        assert curve.cost_arr(np.array(loads)).tolist() == [level] * len(loads)

    def test_objective_ignores_an_overflowing_outbreak_term(self):
        # the objective has no outbreak term; its value overflows a float here
        from epicost.optimize import aggregate_cost, minimize_over_imports

        curves = CostCurveSet(TransmissionCost(1.0, 1.0), BorderCost(1.0, 1e120),
                              OutbreakCost(1.0, 3.0))
        assert aggregate_cost(curves, 1e110) == 1e110
        res = minimize_over_imports(curves, grid_points=101)
        assert (res.argument, res.classification) == (0.0, "boundary-closed")


class TestDerivativeAgainstFiniteDifference:
    def test_hundred_random_interior_points(self):
        rng = np.random.default_rng(3)
        transmission = TransmissionCost(c0=1.3, tti_slope=0.4, tti_capacity=8.0,
                                        breakdown_jump=1.0, wide_slope=0.9,
                                        wide_exponent=1.7)
        border = BorderCost(b0=2.5, i_free=6.0, curvature=2.2)
        for _ in range(100):
            x = float(rng.uniform(0.3, 15.0))
            if abs(x - 8.0) < 1e-3:
                continue
            h = 1e-6 * max(1.0, abs(x))
            if x + h < 8.0 or x - h > 8.0:  # stay on one branch
                fd = central_diff(transmission.cost, x, h)
                assert transmission.marginal(x) == pytest.approx(fd, rel=1e-6)
            y = float(rng.uniform(0.2, 5.8))
            hy = 1e-6 * max(1.0, abs(y))
            fd = central_diff(border.cost, y, hy)
            assert border.marginal(y) == pytest.approx(fd, rel=1e-6)


class TestMonotonicityProperties:
    def test_transmission_strictly_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            curve = TransmissionCost(
                c0=float(rng.uniform(0.2, 3.0)),
                tti_slope=float(rng.uniform(0.05, 1.0)),
                tti_capacity=float(rng.uniform(1.0, 20.0)),
                breakdown_jump=float(rng.uniform(0.0, 3.0)),
                wide_slope=float(rng.uniform(1.0, 2.0)),
                wide_exponent=float(rng.uniform(1.0, 2.5)))
            grid = np.linspace(0.0, 50.0, 500)
            assert np.all(np.diff(curve.cost_arr(grid)) > 0)

    def test_border_strictly_decreasing(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            curve = BorderCost(float(rng.uniform(0.5, 5.0)),
                               float(rng.uniform(1.0, 8.0)),
                               float(rng.uniform(1.0, 3.0)))
            grid = np.linspace(0.0, curve.i_free, 300)
            assert np.all(np.diff([curve.cost(i) for i in grid.tolist()]) < 0)

    def test_outbreak_nondecreasing(self):
        curve = OutbreakCost(0.7, 1.9)
        grid = np.linspace(0.0, 30.0, 300)
        assert np.all(np.diff(curve.cost_arr(grid)) >= 0)


class TestValidateShape:
    def test_overflow_gets_its_own_check_without_warnings(self):
        # x ** 1e300 is 0 below one case and inf above: nondecreasing, but
        # past float range from the first sample over 1
        curves = CostCurveSet(TransmissionCost(1.0, 0.5), BorderCost(2.0, 4.0),
                              OutbreakCost(0.5, 1e300), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_curve_set(curves)
        assert [(c.name, c.field_path) for c in report.failures()] == [
            ("outbreak.finite", "outbreak")]
        assert report.failures()[0].detail == (
            "sampled cost overflows float range from 1.001 on [0, 4]")
        assert {c.name for c in report.checks} >= {"outbreak.nondecreasing",
                                                   "outbreak.zero_at_zero"}

    def test_overflow_at_last_sample_alone_fails(self):
        # behaviour change: 0.5 * 4 ** 512 is inf at the last sample only;
        # the old difference checks passed this curve (finite -> inf is +inf)
        curves = CostCurveSet(TransmissionCost(1.0, 0.5), BorderCost(2.0, 4.0),
                              OutbreakCost(0.5, 512.0), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failures = validate_curve_set(curves).failures()
        assert [(c.name, c.detail) for c in failures] == [
            ("outbreak.finite", "sampled cost overflows float range from 4 on [0, 4]")]

    def test_nan_sample_is_named_nan(self, monkeypatch):
        monkeypatch.setattr(OutbreakCost, "cost", lambda self, x: math.nan if x > 2.0 else x)
        curves = CostCurveSet(TransmissionCost(1.0, 0.5), BorderCost(2.0, 4.0),
                              OutbreakCost(0.5), 1.0)
        failures = validate_curve_set(curves).failures()
        assert [(c.name, c.field_path) for c in failures] == [("outbreak.finite", "outbreak")]
        assert failures[0].detail.startswith("sampled cost is nan from 2.00")

    def test_finite_check_only_on_overflow(self, quad_set):
        assert not any(c.name.endswith(".finite")
                       for c in validate_curve_set(quad_set).checks)

    def test_sampling_range_past_float_range(self):
        # import_multiplier * i_free overflows: the grid ends at the largest float
        curves = CostCurveSet(TransmissionCost(1.0, 0.0, 0.0, 0.0, 1.0, 2.0),
                              BorderCost(2.0, 4.0), OutbreakCost(0.5), 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failures = validate_curve_set(curves).failures()
        assert [c.name for c in failures] == ["transmission.finite"]
        assert failures[0].detail.endswith("on [0, 1.79769e+308]")

    def test_valid_default_set_passes(self, quad_set):
        report = validate_curve_set(quad_set)
        assert report.all_pass
        assert not report.failures()

    def test_breakdown_with_jump_passes(self):
        curves = CostCurveSet(
            TransmissionCost(1.0, 0.3, 50.0, 5.0, 0.6, 1.5),
            BorderCost(3.0, 5.0, 2.0), OutbreakCost(1.0), 2.0)
        assert validate_curve_set(curves).all_pass

    def test_wide_slope_below_tti_slope_flagged(self):
        curves = CostCurveSet(
            TransmissionCost(c0=1.0, tti_slope=1.0, tti_capacity=5.0,
                             breakdown_jump=0.0, wide_slope=0.5, wide_exponent=1.0),
            BorderCost(2.0, 4.0), OutbreakCost(0.5), 1.0)
        failed = {c.name for c in validate_curve_set(curves).failures()}
        assert "transmission.breakdown_convex" in failed

    def test_zero_closure_cost_flagged(self):
        curves = CostCurveSet(
            TransmissionCost(1.0, 0.5),
            BorderCost(b0=0.0, i_free=4.0), OutbreakCost(0.5), 1.0)
        failures = validate_curve_set(curves).failures()
        assert any(c.name == "border.closure_cost_positive" for c in failures)
        assert any(c.field_path == "border.b0" for c in failures)

    def test_flat_tti_segment_flagged(self):
        curves = CostCurveSet(
            TransmissionCost(c0=1.0, tti_slope=0.0, tti_capacity=5.0,
                             breakdown_jump=1.0, wide_slope=1.0),
            BorderCost(2.0, 4.0), OutbreakCost(0.5), 1.0)
        failed = {c.name for c in validate_curve_set(curves).failures()}
        assert "transmission.strictly_increasing" in failed
