"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a PASS/FAIL line with its runtime against the stated
budget (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criteria 3 and 9 are implemented exactly as stated and are expected to
fail; the analysis lives in the repo notes. In short: (3) the limit-form
tail omits the (1-L)**(k-nu) factor, so the exact tail converges to the
binomial tail from above and the distance to the limit form grows toward a
constant ~2e-3 instead of shrinking; (9) with the stringency weight
vanishing at R = r0, a schedule that crashes deep and coasts upward at the
end still meets the target, contains growth, and strictly undercuts every
monotone schedule by the stringency cost it skips on the tail days.
"""

import time
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from epicost import _kernels
from epicost.costs import validate_curve_set
from epicost.fixtures import bundled_curve_sets, fixture_path
from epicost.game import GameState, RegionState, TravelLink, solve_game
from epicost.importation import (ImportScenario, approx_tail_sum,
                                 expected_imports, hypergeom_mean,
                                 import_tail_sum, pmf_support, sample_imports)
from epicost.optimize import (INTERIOR, minimize_over_imports,
                              minimize_over_screening)
from epicost.trajectory import (DynamicsParams, compare_monotone_vs_relax,
                                steady_state_holding_cost)
from test_optimize import random_valid_set


@contextmanager
def criterion(num, desc, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num:>2}] FAIL  {desc}  ({elapsed:.2f}s, budget {budget:g}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {desc}  "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {num} exceeded its {budget:g}s budget"


def test_criterion_01_distribution_correctness():
    with criterion(1, "pmf normalization and mean on 200 random scenarios", 10.0):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 10_001))
            infected = int(rng.integers(0, n + 1))
            travelers = int(rng.integers(0, n + 1))
            s = ImportScenario(n, infected, travelers)
            nus, probs = pmf_support(s)
            assert abs(probs.sum() - 1.0) <= 1e-12
            mean = float((nus * probs).sum())
            assert abs(mean - hypergeom_mean(s)) <= 1e-12 * max(1.0, hypergeom_mean(s))


def test_criterion_02_closed_form_identity():
    with criterion(2, "expected imports match k L (1+L)**(k-1) to 1e-12", 1.0):
        for prevalence in (0.001, 0.01, 0.1, 0.5):
            for k in range(1, 201):
                closed = k * prevalence * (1.0 + prevalence) ** (k - 1)
                value = expected_imports(k, prevalence)
                assert abs(value - closed) <= 1e-12 * closed


def test_criterion_03_limit_convergence():
    # Stated check: the gap between the exact tail sum and the limit-form
    # tail strictly decreases across N. The limit form lacks the
    # (1-L)**(k-nu) factor, so the gap in fact grows toward ~2e-3; this
    # criterion is recorded as unattainable and the test is expected to fail.
    with criterion(3, "exact-vs-limit tail gap decreasing in N", 5.0):
        k, prevalence, n = 5, 0.01, 2
        approx = approx_tail_sum(k, prevalence, n)
        gaps = []
        for population in (10**3, 10**4, 10**5, 10**6):
            s = ImportScenario.from_prevalence(population, prevalence, k)
            gaps.append(abs(import_tail_sum(s, n) - approx))
        assert all(b < a for a, b in zip(gaps, gaps[1:])), \
            f"gap sequence is not strictly decreasing: {gaps}"


def test_criterion_04_monte_carlo_oracle():
    with criterion(4, "1e5 seeded trials match exact pmf within 4 SE", 5.0):
        s = ImportScenario(10, 2, 3)
        draws = sample_imports(s, seed=42, trials=100_000)
        nus, probs = pmf_support(s)
        counts = np.bincount(draws, minlength=int(nus[-1]) + 1)
        for nu, p in zip(nus, probs):
            freq = counts[nu] / draws.size
            se = np.sqrt(p * (1.0 - p) / draws.size)
            assert abs(freq - p) <= 4.0 * se, f"bucket {nu}: {freq} vs {p}"


def test_criterion_05_optimizer_oracle_equivalence():
    with criterion(5, "solver beats 1e5-point grid on 50 random curve sets", 30.0):
        rng = np.random.default_rng(5)
        for _ in range(50):
            curves = random_valid_set(rng)
            result = minimize_over_imports(curves)
            grid = np.linspace(0.0, curves.border.i_free, 100_000)
            cb = curves.border
            oracle = (curves.transmission.cost_arr(curves.import_multiplier * grid)
                      + cb.b0 * (1.0 - grid / cb.i_free) ** cb.curvature).min()
            assert result.cost <= oracle + 1e-6
            if result.classification == INTERIOR:
                assert abs(result.foc_residual) <= 1e-6


def test_criterion_06_fractional_minimum_witness(quad_set):
    with criterion(6, "quadratic fixture: interior fractional I* = 0.25", 1.0):
        result = minimize_over_imports(quad_set)
        assert result.argument == pytest.approx(0.25, abs=1e-6)
        assert result.cost == pytest.approx(2.9375, abs=1e-6)
        assert result.classification == INTERIOR
        assert 0.0 < result.argument < 1.0


def test_criterion_07_boundary_classification(quad_set, steep_set, shallow_set):
    with criterion(7, "screening fixtures: open / closed / interior 0.0625", 1.0):
        open_res = minimize_over_screening(shallow_set, import_threat=4.0)
        assert open_res.classification == "boundary-open"
        assert open_res.argument == 1.0
        closed_res = minimize_over_screening(steep_set, import_threat=4.0)
        assert closed_res.classification == "boundary-closed"
        assert closed_res.argument == 0.0
        interior_res = minimize_over_screening(quad_set, import_threat=4.0)
        assert interior_res.classification == INTERIOR
        assert interior_res.argument == pytest.approx(0.0625, abs=1e-6)


def test_criterion_08_game_dominance_and_paradox(quad_set):
    with criterion(8, "symmetric game: Nash converges, coop dominates, paradox", 10.0):
        a = RegionState("A", 10**6, 0.1, 20.0, quad_set)
        b = RegionState("B", 10**6, 0.1, 20.0, quad_set)
        state = GameState((a, b), (TravelLink("A", "B", 10),
                                   TravelLink("B", "A", 10)))
        solution = solve_game(state, max_iters=100)
        assert solution.converged
        assert solution.iterations <= 100
        assert solution.nash.outcome.total >= solution.cooperative.outcome.total
        for decision in solution.nash.outcome.decisions:
            assert decision.imports > 0.0
        for decision in solution.cooperative.outcome.decisions:
            assert decision.domestic_cases == 0.0


def test_criterion_09_no_growth_schedule_cheaper():
    # Stated check: within the two-segment family (grid 0.1, T=30, x0=100,
    # target <= 1) no growth-containing schedule beats the best monotone
    # one. Under the stringency model (g(r0) = 0) a crash-then-coast
    # schedule always undercuts monotone descent by the stringency cost it
    # skips while drifting upward below the target, so this criterion is
    # recorded as unattainable and the test is expected to fail. The
    # relax-then-tighten pattern the claim describes is beaten by monotone
    # descent on every bundled set (asserted first).
    with criterion(9, "no growth-containing schedule beats best monotone", 60.0):
        params = DynamicsParams(r0=2.5, r_min=0.5)
        for name, curves in bundled_curve_sets().items():
            cmp_ = compare_monotone_vs_relax(100.0, 1.0, 30, curves, params,
                                             r_step=0.1)
            assert cmp_.monotone_beats_relax_then_tighten, name
            assert cmp_.monotone_dominates, (
                f"{name}: growth schedule "
                f"(r1={cmp_.r_first[cmp_.cheapest_growth_index]}, "
                f"r2={cmp_.r_second[cmp_.cheapest_growth_index]}, "
                f"switch={cmp_.switch_day[cmp_.cheapest_growth_index]}) costs "
                f"{cmp_.total_cost[cmp_.cheapest_growth_index]:.6g} vs best "
                f"monotone {cmp_.total_cost[cmp_.best_monotone_index]:.6g}")


def test_criterion_10_zero_case_floor():
    with criterion(10, "steady-state daily cost minimized at zero cases", 1.0):
        params = DynamicsParams(r0=2.5, r_min=0.5)
        grid = np.linspace(0.0, 100.0, 1000)
        for name, curves in bundled_curve_sets().items():
            assert validate_curve_set(curves).all_pass, name
            costs = np.array([steady_state_holding_cost(curves, float(x), params)
                              for x in grid])
            assert costs[0] == 0.0
            assert np.all(costs[1:] > costs[0]), name


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "every command byte-identical across two runs", 30.0):
        jobs = [
            ("validate", "two_region_symmetric", []),
            ("import-dist", "import_dist_small", ["--mc-trials", "2000"]),
            ("optimize", "boundary_trio", []),
            ("game", "two_region_symmetric", []),
            ("simulate", "one_region_quadratic", []),
            ("compare-schedules", "one_region_quadratic", []),
        ]
        outputs = {}
        for run in ("first", "second"):
            run_dir = tmp_path / run
            for command, fixture, extra in jobs:
                out = run_dir / command
                out.mkdir(parents=True)
                proc = subprocess.run(
                    [sys.executable, "-m", "epicost", command,
                     "--config", str(fixture_path(fixture)),
                     "--out", str(out), "--seed", "42", *extra],
                    capture_output=True, text=True)
                assert proc.returncode == 0, (command, proc.stderr)
                files = sorted(p for p in out.iterdir() if p.is_file())
                assert files, command
                outputs.setdefault(command, []).append(
                    [(p.name, p.read_bytes()) for p in files])
        for command, (first, second) in outputs.items():
            assert first == second, f"{command} outputs differ between runs"
