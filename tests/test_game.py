
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicost.costs import (BorderCost, CostCurveSet, OutbreakCost,
                           TransmissionCost)
from epicost.errors import DomainError
from epicost.fixtures import bundled_curve_sets
from epicost.game import (GameOutcome, GameState, NashResult, RegionState,
                          TravelLink, _decision, best_response,
                          cooperative_optimum, nash_iterate,
                          price_of_noncooperation, solve_game)
from epicost.importation import expected_imports
from epicost.optimize import (BOUNDARY_CLOSED, BOUNDARY_OPEN, FOC_TOL,
                              INTERIOR)


def region(name, prevalence, curves, domestic=0.0, population=10**6):
    return RegionState(name, population, prevalence, domestic, curves)


def two_region_state(curves, la, lb, travelers=10, domestic=20.0):
    a = region("A", la, curves, domestic)
    b = region("B", lb, curves, domestic)
    return GameState((a, b), (TravelLink("A", "B", travelers),
                              TravelLink("B", "A", travelers)))


class TestImportsBetween:
    """Realized imports on a link are the unscreened threat times its screening."""

    def test_zero_prevalence(self, quad_set):
        responder = region("B", 0.0, quad_set)
        origin = region("A", 0.0, quad_set)
        decision = best_response(responder, origin, TravelLink("A", "B", 50))
        assert decision.imports == 0.0

    def test_closed_border(self, quad_set):
        responder = region("B", 0.0, quad_set)
        threat = expected_imports(50, 0.4)
        decision = _decision(responder, 0.0, threat, 0.0, BOUNDARY_CLOSED)
        assert threat > 0.0
        assert decision.imports == 0.0

    def test_partial_screening(self, quad_set):
        responder = region("B", 0.0, quad_set)
        threat = expected_imports(2, 0.1)
        decision = _decision(responder, 0.0, threat, 0.5, INTERIOR)
        assert decision.imports == pytest.approx(0.11)


class TestBestResponse:
    def test_virus_free_opponent_opens_borders(self, quad_set):
        responder = region("B", 0.0, quad_set)
        opponent = region("A", 0.0, quad_set)
        decision = best_response(responder, opponent, TravelLink("A", "B", 50))
        assert decision.screening == 1.0
        assert decision.imports == 0.0
        assert decision.costs.border == 0.0
        assert decision.costs.total == pytest.approx(1.0)  # c0 only

    @pytest.mark.parametrize("curvature", [1.0, 1.5, 2.0])
    def test_zero_threat_is_boundary_open_for_any_curvature(self, quad_set, curvature):
        curves = quad_set._replace(border=quad_set.border._replace(curvature=curvature))
        responder = region("B", 0.0, curves)
        opponent = region("A", 0.0, curves)
        decision = best_response(responder, opponent, TravelLink("A", "B", 50))
        assert decision.import_threat == 0.0
        assert decision.screening == 1.0
        assert decision.costs.border == 0.0
        assert decision.classification == BOUNDARY_OPEN

    def test_interior_screening_matches_analytic(self, quad_set):
        # travelers=2 at full prevalence gives an unscreened threat of exactly 4
        responder = region("B", 0.0, quad_set)
        opponent = region("A", 1.0, quad_set, population=1000)
        decision = best_response(responder, opponent, TravelLink("A", "B", 2))
        assert decision.import_threat == pytest.approx(4.0)
        assert decision.screening == pytest.approx(0.0625, abs=1e-6)
        assert decision.imports == decision.import_threat * decision.screening
        assert decision.domestic_cases == 0.0

    def test_free_borders_close_when_any_import_hurts(self):
        curves = CostCurveSet(TransmissionCost(1.0, 1.0),
                              BorderCost(b0=0.0, i_free=4.0), OutbreakCost(), 1.0)
        responder = region("B", 0.0, curves)
        opponent = region("A", 1.0, curves, population=1000)
        decision = best_response(responder, opponent, TravelLink("A", "B", 2))
        assert decision.screening == decision.imports == 0.0

    def test_grid_oracle(self, quad_set):
        responder = region("B", 0.0, quad_set)
        opponent = region("A", 0.1, quad_set)
        link = TravelLink("A", "B", 10)
        decision = best_response(responder, opponent, link)
        threat = expected_imports(10, 0.1)
        assert decision.import_threat == threat
        assert decision.imports == threat * decision.screening
        alpha = quad_set.import_multiplier
        fs = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        costs = (quad_set.transmission.cost_arr(alpha * threat * fs)
                 + quad_set.border.b0 * (1.0 - fs) ** quad_set.border.curvature)
        assert decision.objective <= costs.min() + 1e-9


class TestNashIteration:
    def test_virus_free_world_converges_immediately(self, quad_set):
        result = nash_iterate(two_region_state(quad_set, 0.0, 0.0))
        assert result.converged
        assert result.iterations == 1
        for d in result.outcome.decisions:
            assert d.screening == 1.0
            assert d.domestic_cases == 0.0

    def test_symmetric_regions_symmetric_fixed_point(self, quad_set):
        result = nash_iterate(two_region_state(quad_set, 0.1, 0.1), tol=1e-9)
        assert result.converged
        d1, d2 = result.outcome.decisions
        assert abs(d1.screening - d2.screening) <= 1e-9

    def test_clean_region_screens_infected_region_opens(self, quad_set):
        result = nash_iterate(two_region_state(quad_set, 0.1, 0.0))
        by_region = {d.region: d for d in result.outcome.decisions}
        infected, clean = by_region["A"], by_region["B"]
        assert infected.screening == 1.0       # faces no threat from B
        assert clean.screening < 1.0           # screens traffic from A

    def test_fixed_point_is_unilaterally_stable(self, quad_set):
        state = two_region_state(quad_set, 0.1, 0.1)
        result = nash_iterate(state, tol=1e-9)
        for d in result.outcome.decisions:
            threat = d.import_threat
            alpha = quad_set.import_multiplier
            for df in (-1e-3, 1e-3):
                f = min(1.0, max(0.0, d.screening + df))
                perturbed = (quad_set.transmission.cost(alpha * threat * f)
                             + quad_set.border.b0 * (1.0 - f))
                assert perturbed >= d.objective - 1e-6

    def test_interior_nash_matches_analytic_value(self, quad_set):
        # cost(F) = 1 + (threat F)^2 + 2 (1 - F) minimized at F = 1/threat^2
        result = nash_iterate(two_region_state(quad_set, 0.1, 0.1))
        threat = expected_imports(10, 0.1)
        for d in result.outcome.decisions:
            assert d.screening == pytest.approx(1.0 / threat**2, abs=1e-6)
            assert d.imports > 0

    def test_validation(self, quad_set):
        state = two_region_state(quad_set, 0.1, 0.1)
        with pytest.raises(DomainError):
            nash_iterate(state, max_iters=0)
        with pytest.raises(DomainError):
            nash_iterate(state, tol=0.0)


def reference_nash_iterate(state, max_iters, tol, grid_points, foc_tol):
    """The alternating best-response loop ``nash_iterate`` replaced."""
    current = {}
    for region in state.regions:
        link = state.inbound_link(region.name)
        current[region.name] = link.screening if link else 1.0

    decisions = {}
    converged = False
    iterations = 0
    for iteration in range(1, max_iters + 1):
        iterations = iteration
        move = 0.0
        for region in state.regions:
            link = state.inbound_link(region.name)
            if link is None:
                decision = _decision(region, 0.0, 0.0, 1.0, BOUNDARY_OPEN)
            else:
                decision = best_response(region, state.opponent(region.name),
                                         link, grid_points=grid_points,
                                         foc_tol=foc_tol)
            move = max(move, abs(decision.screening - current[region.name]))
            current[region.name] = decision.screening
            decisions[region.name] = decision
        if move < tol:
            converged = True
            break

    ordered = tuple(decisions[r.name] for r in state.regions)
    total = sum(d.costs.total for d in ordered)
    return NashResult(state=state, outcome=GameOutcome(ordered, total),
                      converged=converged, iterations=iterations)


_GRID = 101   # the reference repeats every best response: keep them cheap


@st.composite
def nash_states(draw):
    families = sorted(bundled_curve_sets().items())
    regions = tuple(
        RegionState(name, draw(st.integers(10**3, 10**7)),
                    draw(st.sampled_from([0.0, 1e-4]) | st.floats(0.0, 0.01)),
                    draw(st.floats(0.0, 50.0)), draw(st.sampled_from(families))[1])
        for name in "AB")
    links = []
    for origin, destination in (("A", "B"), ("B", "A")):
        travelers = draw(st.none() | st.integers(0, 2000))
        if travelers is None:
            continue
        link = TravelLink(origin, destination, travelers,
                          draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
        if draw(st.booleans()):
            # configure the screening the region would choose anyway
            responder, opponent = (regions[1], regions[0]) if origin == "A" else regions
            link = link._replace(screening=best_response(
                responder, opponent, link, grid_points=_GRID).screening)
        links.append(link)
    return GameState(regions, tuple(links))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(state=nash_states(), max_iters=st.sampled_from([1, 2, 3, 100]),
       tol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.5, 2.0]))
def test_nash_matches_the_best_response_loop(state, max_iters, tol):
    got = nash_iterate(state, max_iters=max_iters, tol=tol, grid_points=_GRID)
    want = reference_nash_iterate(state, max_iters, tol, _GRID, FOC_TOL)
    assert got == want


class TestCooperative:
    def test_joint_optimum_zero_cases_open_borders(self, quad_set):
        coop = cooperative_optimum(two_region_state(quad_set, 0.1, 0.1))
        for d in coop.outcome.decisions:
            assert d.domestic_cases == 0.0
            assert d.screening == 1.0
            assert d.costs.total == pytest.approx(1.0, abs=1e-9)
        assert coop.outcome.total == pytest.approx(2.0, abs=1e-9)
        assert coop.steady_prevalences == (0.0, 0.0)

    def test_dominates_nash(self, quad_set):
        state = two_region_state(quad_set, 0.1, 0.1)
        nash = nash_iterate(state)
        coop = cooperative_optimum(state)
        gap, ratio = price_of_noncooperation(nash, coop)
        assert gap > 0
        assert ratio > 1

    def test_virus_free_world_gap_zero(self, quad_set):
        state = two_region_state(quad_set, 0.0, 0.0)
        gap, ratio = price_of_noncooperation(nash_iterate(state),
                                             cooperative_optimum(state))
        assert gap == pytest.approx(0.0, abs=1e-9)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_paradox_witness(self, quad_set):
        # noncooperative play leaves both regions importing cases while the
        # joint optimum has zero cases and fully open borders
        solution = solve_game(two_region_state(quad_set, 0.1, 0.1))
        assert solution.converged
        for d in solution.nash.outcome.decisions:
            assert d.imports > 0
        for d in solution.cooperative.outcome.decisions:
            assert d.domestic_cases == 0.0
            assert d.screening == 1.0
        assert solution.gap > 0

    def test_mismatched_states_rejected(self, quad_set):
        nash = nash_iterate(two_region_state(quad_set, 0.1, 0.1))
        coop = cooperative_optimum(two_region_state(quad_set, 0.0, 0.0))
        with pytest.raises(DomainError):
            price_of_noncooperation(nash, coop)


class TestGameStateValidation:
    def test_duplicate_names_rejected(self, quad_set):
        a = region("A", 0.1, quad_set)
        with pytest.raises(DomainError):
            GameState((a, a), ())

    def test_unknown_link_endpoint_rejected(self, quad_set):
        state_regions = (region("A", 0.1, quad_set), region("B", 0.1, quad_set))
        with pytest.raises(DomainError):
            GameState(state_regions, (TravelLink("A", "C", 5),))

    def test_duplicate_direction_rejected(self, quad_set):
        state_regions = (region("A", 0.1, quad_set), region("B", 0.1, quad_set))
        with pytest.raises(DomainError):
            GameState(state_regions, (TravelLink("A", "B", 5),
                                      TravelLink("A", "B", 7)))

    def test_screening_bounds(self):
        with pytest.raises(DomainError):
            TravelLink("A", "B", 5, screening=1.2)
