"""The optimizer's branch-and-bound grid against the full scan it replaced.

``full_scan_index`` is the grid the optimizer used before: every point's
cost in one array of doubles, then the first point within a relative
``TIE_TOL`` of the least. ``_grid_index`` must return the same index on
every axis, or ``None`` wherever the scan met a cost that is not finite,
and the optimizer must return the same ``OptimizationResult`` with either
(their ``repr``s are compared, or the type and message of the error).
Besides random curve sets, adversarial ones probe where a bound could
fail: a kink on a grid point, a flat transmission branch, a border cost
near zero, a cost flat within ``TIE_TOL`` (where nothing is pruned) and
costs that overflow.
"""

import math
import statistics
from array import array
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicost import optimize
from epicost.costs import BorderCost, CostCurveSet, OutbreakCost, TransmissionCost
from epicost.errors import DomainError, NumericalFailure
from epicost.optimize import TIE_TOL, minimize_over_imports, minimize_over_screening
from test_optimize import random_valid_set

GRIDS = (3, 4, 64, 65, 10_000)


def full_scan_index(load_cost, border_cost, n):
    fs = array("d", [0.0]) * n
    for i in range(n):
        fs[i] = load_cost(i) + border_cost(i)
    if not all(map(math.isfinite, fs)):
        return None
    least = min(fs) * (1.0 + TIE_TOL)
    return next(i for i, f in enumerate(fs) if f <= least)


@contextmanager
def full_scan():
    with patch.object(optimize, "_grid_index", full_scan_index):
        yield


@contextmanager
def checked_grid(evaluations: list):
    """Every grid search checked against the full scan on the same axis;
    each search appends the number of points it costed (the larger of its
    two parts' counts)."""
    search = optimize._grid_index

    def checked(load_cost, border_cost, n):
        calls = [0, 0]

        def load(i):
            calls[0] += 1
            return load_cost(i)

        def border(i):
            calls[1] += 1
            return border_cost(i)

        got = search(load, border, n)
        evaluations.append(max(calls))
        assert got == full_scan_index(load_cost, border_cost, n)
        return got

    with patch.object(optimize, "_grid_index", checked):
        yield


def outcome(solve, *args):
    try:
        return repr(solve(*args))
    except (DomainError, NumericalFailure) as exc:
        return type(exc), str(exc)


def same_as_full_scan(solve, *args) -> list:
    """Assert that ``solve(*args)`` gives what it gave with the full scan;
    return the number of points each of its grid searches costed."""
    evaluations = []
    with checked_grid(evaluations):
        got = outcome(solve, *args)
    with full_scan():
        want = outcome(solve, *args)
    assert got == want
    return evaluations


def screening_solve(curves, threat_frac, grid_points):
    # as best_response does: the border curve is rescaled to the threat
    threat = threat_frac * curves.border.i_free
    link = curves._replace(border=curves.border.rescaled(threat))
    return minimize_over_screening(link, threat, 0.0, grid_points)


def solves(curves, grid_points, threat_frac=0.6):
    """The imports axis and one screening axis of a curve set."""
    return [(minimize_over_imports, curves, grid_points),
            (screening_solve, curves, threat_frac, grid_points)]


_grid_search = settings(max_examples=60, deadline=None, derandomize=True)


@_grid_search
@given(seed=st.integers(0, 2**32 - 1), grid_points=st.sampled_from(GRIDS),
       threat_frac=st.floats(0.01, 1.0))
def test_random_valid_sets_match_full_scan(seed, grid_points, threat_frac):
    curves = random_valid_set(np.random.default_rng(seed))
    for solve, *args in solves(curves, grid_points, threat_frac):
        same_as_full_scan(solve, *args)


def transmission(c0=1.0, tti_slope=0.5, tti_capacity=1.0, breakdown_jump=1.0,
                 wide_slope=2.0, wide_exponent=1.5):
    return TransmissionCost(c0, tti_slope, tti_capacity, breakdown_jump, wide_slope,
                            wide_exponent)


def curve_set(ct, b0=2.0, i_free=4.0, curvature=1.0):
    return CostCurveSet(ct, BorderCost(b0, i_free, curvature), OutbreakCost(0.5, 1.0))


# a linear transmission cost that rises as fast as a linear border cost
# falls, so that nothing is pruned: every grid cost is 3 within rounding on
# the imports axis, and 2.2 on the screening axis at threat 0.6 * i_free
FLAT = curve_set(TransmissionCost(1.0, 0.5), b0=2.0, i_free=4.0)
FLAT_SCREENING = curve_set(TransmissionCost(1.0, 0.5), b0=1.2, i_free=4.0)

ADVERSARIAL = {
    # with 65 points, the imports axis [0, 4] has its breakdown load 1 on
    # grid point 16, and the screening axis at threat 2.4 has the load 1.5
    # of "kink at 1.5" within rounding of point 40 (F = 0.625)
    "kink on a grid point": curve_set(transmission(breakdown_jump=0.0)),
    "jump on a grid point": curve_set(transmission(breakdown_jump=0.7)),
    "kink at 1.5": curve_set(transmission(tti_capacity=1.5, breakdown_jump=0.0)),
    "no jump, no tti slope": curve_set(transmission(tti_slope=0.0, breakdown_jump=0.0)),
    "capacity 0": curve_set(transmission(tti_capacity=0.0, wide_exponent=2.0)),
    "tiny b0": curve_set(transmission(tti_slope=0.0), b0=1e-300),
    "b0 inside the tie band": curve_set(transmission(tti_slope=0.0), b0=1e-13),
    "b0 just past the tie band": curve_set(transmission(tti_slope=0.0), b0=1e-11),
    "convex border": curve_set(transmission(), curvature=3.0),
    "flat": FLAT,
    "flat on the screening axis": FLAT_SCREENING,
    "flat with a kink": curve_set(transmission(tti_slope=0.5, tti_capacity=2.0,
                                               breakdown_jump=0.0, wide_slope=0.5,
                                               wide_exponent=1.0)),
    "zero cost": curve_set(TransmissionCost(0.0), b0=0.0),
}


@pytest.mark.parametrize("grid_points", GRIDS)
@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_sets_match_full_scan(name, grid_points):
    for solve, *args in solves(ADVERSARIAL[name], grid_points):
        same_as_full_scan(solve, *args)


@pytest.mark.parametrize("name", ["jump on a grid point", "tiny b0", "flat"])
def test_a_million_points_match_full_scan(name):
    for solve, *args in solves(ADVERSARIAL[name], 1_000_003):
        same_as_full_scan(solve, *args)


def test_kink_sits_on_a_grid_point():
    # the adversarial kink is a grid point's load exactly, as meant
    step = 4.0 / 64
    assert 16 * step == ADVERSARIAL["kink on a grid point"].transmission.tti_capacity


# wide_slope * (load - 1) ** wide_exponent passes float range past the
# axis' end, in the middle of it, or in one grid cost's sum alone
OVERFLOWING = {
    "wide slope": curve_set(transmission(wide_slope=1e300, wide_exponent=3.0), i_free=1e6),
    "wide exponent": curve_set(transmission(wide_exponent=200.0), i_free=100.0),
    "jump plus border": curve_set(transmission(tti_slope=0.0, breakdown_jump=1.7e308,
                                               wide_slope=0.0),
                                  b0=1e308, i_free=4.0),
    "finite, with a border as large as the top": curve_set(
        TransmissionCost(0.0, 4e307), b0=1.6e308, i_free=4.0),
}


@pytest.mark.parametrize("grid_points", [3, 65, 10_000])
@pytest.mark.parametrize("name", OVERFLOWING)
def test_overflow_raises_as_the_full_scan(name, grid_points):
    for solve, *args in solves(OVERFLOWING[name], grid_points):
        same_as_full_scan(solve, *args)


def test_overflow_message():
    with pytest.raises(NumericalFailure,
                       match=r"^non-finite cost while minimizing over imports "
                             r"on \[0\.0, 1000000\.0\]$"):
        minimize_over_imports(OVERFLOWING["wide slope"], 65)
    # one grid cost's sum overflows, though each part and both ends are finite
    with pytest.raises(NumericalFailure, match="over imports on"):
        minimize_over_imports(OVERFLOWING["jump plus border"], 65)


def test_flat_cost_evaluations_are_bounded():
    # the worst case: no block is pruned, and each halving costs one point
    # more per (at least) _LEAF / 2 points
    n = 10_000
    for solve, *args in [(minimize_over_imports, FLAT, n),
                         (screening_solve, FLAT_SCREENING, 0.6, n)]:
        evaluations = same_as_full_scan(solve, *args)
        assert evaluations[0] >= n   # flat indeed: every point was costed
        assert evaluations[0] <= (1 + 2 / optimize._LEAF) * n + 64


def test_median_evaluations_at_ten_thousand_points():
    evaluations = []
    rng = np.random.default_rng(7)
    for _ in range(60):
        curves = random_valid_set(rng)
        for solve, *args in solves(curves, 10_000, float(rng.uniform(0.05, 1.0))):
            evaluations += same_as_full_scan(solve, *args)
    assert len(evaluations) == 120
    assert statistics.median(evaluations) <= 1_000
