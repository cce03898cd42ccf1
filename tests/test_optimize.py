import tracemalloc

import numpy as np
import pytest

from epicost.costs import (BorderCost, CostCurveSet, OutbreakCost,
                           TransmissionCost)
from epicost.errors import DomainError
from epicost.optimize import (BOUNDARY_CLOSED, BOUNDARY_OPEN, INTERIOR,
                              aggregate_cost, closure_condition, golden_section,
                              minimize_over_imports, minimize_over_screening)


def random_valid_set(rng):
    tti_slope = float(rng.uniform(0.05, 1.0))
    capacity = np.inf if rng.random() < 0.3 else float(rng.uniform(0.5, 20.0))
    return CostCurveSet(
        TransmissionCost(
            c0=float(rng.uniform(0.5, 3.0)),
            tti_slope=tti_slope,
            tti_capacity=capacity,
            breakdown_jump=float(rng.uniform(0.0, 3.0)),
            wide_slope=tti_slope + float(rng.uniform(0.1, 2.0)),
            wide_exponent=float(rng.uniform(1.0, 2.5))),
        BorderCost(b0=float(rng.uniform(0.5, 5.0)),
                   i_free=float(rng.uniform(1.0, 8.0)),
                   curvature=float(rng.uniform(1.0, 3.0))),
        OutbreakCost(per_case=float(rng.uniform(0.0, 2.0)),
                     exponent=float(rng.uniform(1.0, 2.0))),
        import_multiplier=float(rng.uniform(1.0, 3.0)))


class TestAggregateCost:
    def test_both_baselines_at_zero(self, quad_set):
        assert aggregate_cost(quad_set, 0.0) == pytest.approx(3.0)  # c0 + b0

    def test_quadratic_point(self, quad_set):
        assert aggregate_cost(quad_set, 0.25) == pytest.approx(2.9375)

    def test_fully_open_linear(self, shallow_set):
        assert aggregate_cost(shallow_set, 4.0) == pytest.approx(1.4)


class TestMinimizeOverImports:
    def test_interior_fractional_minimum(self, quad_set):
        res = minimize_over_imports(quad_set)
        assert res.classification == INTERIOR
        assert res.argument == pytest.approx(0.25, abs=1e-6)
        assert res.cost == pytest.approx(2.9375, abs=1e-6)
        assert 0.0 < res.argument < 1.0
        assert abs(res.foc_residual) <= 1e-6

    def test_boundary_closed(self, steep_set):
        res = minimize_over_imports(steep_set)
        assert res.classification == BOUNDARY_CLOSED
        assert res.argument == 0.0
        assert res.cost == pytest.approx(3.0)

    def test_boundary_open(self, shallow_set):
        res = minimize_over_imports(shallow_set)
        assert res.classification == BOUNDARY_OPEN
        assert res.argument == 4.0
        assert res.cost == pytest.approx(1.4)

    def test_oracle_equivalence_random_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            curves = random_valid_set(rng)
            res = minimize_over_imports(curves)
            grid = np.linspace(0.0, curves.border.i_free, 100_000)
            oracle = min(curves.transmission.cost(curves.import_multiplier * i)
                         + curves.border.cost(i) for i in grid.tolist())
            assert res.cost <= oracle + 1e-6
            if res.classification == INTERIOR:
                assert abs(res.foc_residual) <= 1e-6

    def test_costlier_borders_never_reduce_imports(self):
        previous = -1.0
        for b0 in np.linspace(0.5, 8.0, 16):
            curves = CostCurveSet(
                TransmissionCost(1.0, 0.0, 0.0, 0.0, 1.0, 2.0),
                BorderCost(float(b0), 4.0, 1.0), OutbreakCost(0.5), 1.0)
            arg = minimize_over_imports(curves).argument
            assert arg >= previous - 1e-12
            previous = arg

    def test_zero_import_world_prefers_zero_cases(self, quad_set):
        # with no travel at all, transmission + outbreak is minimized at x = 0
        xs = np.linspace(0.0, 50.0, 2000)
        vals = quad_set.transmission.cost_arr(xs) + quad_set.outbreak.cost_arr(xs)
        assert int(np.argmin(vals)) == 0


class TestMinimizeOverScreening:
    def test_interior(self, quad_set):
        res = minimize_over_screening(quad_set, import_threat=4.0)
        assert res.classification == INTERIOR
        assert res.argument == pytest.approx(0.0625, abs=1e-6)
        assert abs(res.foc_residual) <= 1e-6

    def test_boundary_open(self, shallow_set):
        res = minimize_over_screening(shallow_set, import_threat=4.0)
        assert res.classification == BOUNDARY_OPEN
        assert res.argument == 1.0

    def test_boundary_closed(self, steep_set):
        res = minimize_over_screening(steep_set, import_threat=4.0)
        assert res.classification == BOUNDARY_CLOSED
        assert res.argument == 0.0

    def test_open_end_within_the_tie_band_of_a_flat_cost(self):
        # a threat of 1.81e-8 makes the cost flat in F to 1e-12: the golden
        # section stops at F = 0.99680, short of the open end, which costs
        # as little and whose marginal -1.209e-6 is past foc_tol
        curves = CostCurveSet(TransmissionCost(3.48, 77.4, 50.0, 5.0, 0.6, 1.5),
                              BorderCost(180.3, 5.0, 2.0), OutbreakCost(1.0, 1.0), 2.0)
        res = minimize_over_screening(curves, 1.81e-8, 58.73)
        assert res.classification == BOUNDARY_OPEN
        assert res.argument == 1.0
        assert res.foc_residual < -1e-6

    def test_threat_outside_border_domain(self, quad_set):
        with pytest.raises(DomainError):
            minimize_over_screening(quad_set, import_threat=4.5)

    def test_positive_domestic_level_shifts_result(self, quad_set):
        held = minimize_over_screening(quad_set, import_threat=4.0,
                                       domestic_cases=0.5)
        free = minimize_over_screening(quad_set, import_threat=4.0)
        assert held.argument < free.argument  # existing cases make imports dearer


class TestClosureCondition:
    def test_quadratic_full_refund_does_not_force_closure(self, quad_set):
        # marginal transmission at F=0 is 0 against a border saving of 2, a
        # margin wider than the whole readiness baseline c0 = 1
        report = closure_condition(quad_set, 4.0)
        assert report.transmission_marginal == pytest.approx(0.0)
        assert report.border_saving == pytest.approx(2.0)
        assert report.border_saving - report.transmission_marginal > quad_set.transmission.c0
        assert not report.holds

    def test_steep_slope_forces_closure(self):
        curves = CostCurveSet(TransmissionCost(1.0, 5.0),
                              BorderCost(2.0, 4.0, 1.0), OutbreakCost(), 1.0)
        report = closure_condition(curves, 4.0)
        assert report.transmission_marginal == pytest.approx(20.0)
        assert report.holds  # 20 > 2


class TestGoldenSection:
    def test_parabola(self):
        # localization of a quadratic min bottoms out near sqrt(eps)
        x, fx = golden_section(lambda v: (v - 1.3) ** 2 + 2.0, 0.0, 4.0, 1e-10)
        assert x == pytest.approx(1.3, abs=1e-7)
        assert fx == pytest.approx(2.0, abs=1e-12)

    def test_tiny_bracket_returns_midpoint(self):
        x, _ = golden_section(lambda v: v, 1.0, 1.0 + 1e-12, 1e-10)
        assert x == pytest.approx(1.0, abs=1e-11)


def test_grid_holds_8_bytes_a_point(quad_set):
    # the grid search holds a block per level of its halving, not a cost a
    # point; on a cost flat within TIE_TOL it prunes nothing, and costs every
    # point, in the same memory
    flat = CostCurveSet(TransmissionCost(c0=1.0, tti_slope=0.5),
                        BorderCost(b0=2.0, i_free=4.0, curvature=1.0))
    n = 200_001
    for curves in (quad_set, flat):
        minimize_over_imports(curves, grid_points=11)
        tracemalloc.start()
        try:
            minimize_over_imports(curves, grid_points=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 10
