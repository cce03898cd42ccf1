"""The cooperative grid sweep against the scalar triple loop it replaced."""

import math
import tracemalloc
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from epicost import game
from epicost.costs import OutbreakCost, TransmissionCost
from epicost.errors import NumericalFailure
from epicost.fixtures import bundled_curve_sets
from epicost.game import (DEFAULT_INFECTIOUS_DAYS, GameState, RegionState,
                          TravelLink, cooperative_optimum)
from epicost.importation import expected_imports


def reference_grid_winner(r1, r2, xs, fs, threats1, threats2):
    """Scalar O(G^3) sweep: one ``_link_breakdown`` per (x1, x2, F) cell."""
    def cost_at(region, x, f, threat):
        cost = game._link_breakdown(region.curves, x, threat, f).total
        if not math.isfinite(cost):
            raise NumericalFailure("non-finite cost in the reference sweep")
        return cost

    best = None
    for i1, x1 in enumerate(xs):
        for i2, x2 in enumerate(xs):
            costs1 = [cost_at(r1, x1, f, threats1[i2]) for f in fs]
            costs2 = [cost_at(r2, x2, f, threats2[i1]) for f in fs]
            j1 = min(range(len(fs)), key=lambda j: (costs1[j], fs[j]))
            j2 = min(range(len(fs)), key=lambda j: (costs2[j], fs[j]))
            joint = costs1[j1] + costs2[j2]
            if best is None or joint < best[0]:
                best = (joint, float(x1), float(fs[j1]), float(x2), float(fs[j2]))
    return best[1:]


def grid_inputs(state, grid_points):
    """The sweep's inputs, built as ``cooperative_optimum`` builds them."""
    r1, r2 = state.regions
    x_max = max(1.0, r1.domestic_cases, r2.domestic_cases)
    xs = np.linspace(0.0, x_max, grid_points)
    fs = np.linspace(0.0, 1.0, grid_points)

    def threats(into, other):
        link = state.inbound_link(into.name)
        if link is None:
            return np.zeros(grid_points)
        return np.array([expected_imports(
            link.travelers,
            game._steady_prevalence(other, x, DEFAULT_INFECTIOUS_DAYS)) for x in xs])

    return r1, r2, xs, fs, threats(r1, r2), threats(r2, r1)


def outcome(fn, *args, **kwargs):
    """Result of ``fn``, or ``NumericalFailure`` if it raised one."""
    try:
        return fn(*args, **kwargs)
    except NumericalFailure:
        return NumericalFailure


_scale = st.floats(0.1, 10.0)


@st.composite
def region_states(draw, name):
    curves = draw(st.sampled_from(sorted(bundled_curve_sets().items())))[1]
    ct, cb, co = curves.transmission, curves.border, curves.outbreak
    curves = replace(
        curves,
        transmission=replace(ct, c0=ct.c0 * draw(_scale),
                             tti_slope=ct.tti_slope * draw(_scale),
                             wide_slope=ct.wide_slope * draw(_scale)),
        border=replace(cb, b0=cb.b0 * draw(_scale)),
        outbreak=replace(co, per_case=co.per_case * draw(_scale)))
    return RegionState(name, draw(st.integers(10**3, 10**7)), 0.0,
                       draw(st.floats(0.0, 100.0)), curves)


@st.composite
def game_states(draw):
    a, b = draw(region_states("A")), draw(region_states("B"))
    links = tuple(TravelLink(o, d, travelers)
                  for o, d in (("A", "B"), ("B", "A"))
                  if (travelers := draw(st.none() | st.integers(0, 2000))) is not None)
    return GameState((a, b), links)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=game_states(), grid_points=st.integers(2, 15))
def test_grid_winner_matches_scalar_sweep(state, grid_points):
    try:
        args = grid_inputs(state, grid_points)
    except NumericalFailure:
        reject()  # the import threat itself overflows
    assert outcome(game._coop_grid_winner, *args) == outcome(reference_grid_winner, *args)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(state=game_states(), grid_points=st.integers(2, 10))
def test_coop_result_matches_scalar_sweep(state, grid_points):
    got = outcome(cooperative_optimum, state, grid_points=grid_points)
    with mock.patch.object(game, "_coop_grid_winner", reference_grid_winner):
        want = outcome(cooperative_optimum, state, grid_points=grid_points)
    assert got == want


@pytest.mark.parametrize("curve_types", [
    pytest.param((TransmissionCost, OutbreakCost), id="_py")])
def test_grid_winner_on_each_kernel_implementation(curve_types):
    # a fixed TTI-breakdown game, swept on the curves' numpy ``cost_arr``
    # (id ``_py``); the spies show the sweep runs on them
    state = _twin_game(bundled_curve_sets()["tti_breakdown"], travelers_ab=700,
                       travelers_ba=1200, domestic=60.0)
    args = grid_inputs(state, 6)
    want = reference_grid_winner(*args)
    with ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(
            cls, "cost_arr", autospec=True, side_effect=cls.cost_arr))
            for cls in curve_types]
        assert game._coop_grid_winner(*args) == want
    assert all(spy.called for spy in spies)


def _twin_game(curves, travelers_ab, travelers_ba, domestic=10.0):
    """Two regions with the same curves and population."""
    a = RegionState("A", 10**6, 0.0, domestic, curves)
    b = RegionState("B", 10**6, 0.0, domestic, curves)
    links = (TravelLink("A", "B", travelers_ab), TravelLink("B", "A", travelers_ba))
    return GameState((a, b), links)


class TestTies:
    def test_free_border_without_threat_picks_smallest_f(self):
        # b0 = 0 and no inbound travel: every F costs the same, so F = 0 wins
        curves = bundled_curve_sets()["quadratic"]
        free = replace(curves, border=replace(curves.border, b0=0.0))
        state = _twin_game(free, travelers_ab=0, travelers_ba=0)
        args = grid_inputs(state, 7)
        winner = game._coop_grid_winner(*args)
        assert winner == reference_grid_winner(*args)
        assert winner[1] == 0.0 and winner[3] == 0.0

    def test_equal_joint_costs_pick_first_row_major_cell(self):
        # constant costs make every cell tie; the first (x1, x2) must win
        linear = bundled_curve_sets()["linear"]
        flat = replace(linear,
                       transmission=replace(linear.transmission, tti_slope=0.0),
                       border=replace(linear.border, b0=0.0),
                       outbreak=replace(linear.outbreak, per_case=0.0))
        r1, r2 = (RegionState(name, 10**6, 0.0, 5.0, flat) for name in "AB")
        xs = np.linspace(0.0, 5.0, 4)
        fs = np.linspace(0.0, 1.0, 4)
        zero = np.zeros(len(xs))
        winner = game._coop_grid_winner(r1, r2, xs, fs, zero, zero)
        assert winner == reference_grid_winner(r1, r2, xs, fs, zero, zero)
        assert winner == (0.0, 0.0, 0.0, 0.0)

    def test_symmetric_game_keeps_row_major_order(self):
        # swapping the regions' cases gives the same joint cost exactly
        curves = bundled_curve_sets()["tti_breakdown"]
        state = _twin_game(curves, travelers_ab=500, travelers_ba=500,
                                 domestic=80.0)
        args = grid_inputs(state, 9)
        assert game._coop_grid_winner(*args) == reference_grid_winner(*args)


def test_non_finite_cost_raises():
    curves = bundled_curve_sets()["quadratic"]
    huge = replace(curves, transmission=replace(curves.transmission,
                                                wide_exponent=400.0))
    state = _twin_game(huge, travelers_ab=10, travelers_ba=10, domestic=50.0)
    with pytest.raises(NumericalFailure):
        cooperative_optimum(state, grid_points=5)


def test_sweep_memory_stays_quadratic():
    # a full G x G x G table would peak near 8.6 MB at G = 60
    curves = bundled_curve_sets()["tti_breakdown"]
    state = _twin_game(curves, travelers_ab=700, travelers_ba=1200,
                             domestic=60.0)
    args = grid_inputs(state, 60)
    tracemalloc.start()
    try:
        game._coop_grid_winner(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
