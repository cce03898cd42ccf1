import math
import time
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, hypergeom

from epicost import cli, importation
from epicost.errors import DomainError, NumericalFailure
from epicost.importation import (ImportScenario, approx_tail_sum, expected_imports,
                                 hypergeom_mean, hypergeom_pmf, import_tail_sum,
                                 pmf_support, sample_counts, sample_imports)


def enumerate_pmf(n, big_k, k):
    """Brute-force pmf by enumerating every traveler subset."""
    infected = set(range(big_k))
    counts = {}
    total = 0
    for subset in combinations(range(n), k):
        nu = sum(1 for p in subset if p in infected)
        counts[nu] = counts.get(nu, 0) + 1
        total += 1
    return {nu: c / total for nu, c in counts.items()}


class TestPmf:
    def test_matches_subset_enumeration(self):
        s = ImportScenario(10, 2, 3)
        oracle = enumerate_pmf(10, 2, 3)
        assert oracle[1] == pytest.approx(56 / 120)
        for nu in range(4):
            assert hypergeom_pmf(s, nu) == pytest.approx(oracle.get(nu, 0.0), abs=1e-15)

    def test_no_infected_certain_zero(self):
        s = ImportScenario(50, 0, 7)
        assert hypergeom_pmf(s, 0) == 1.0
        assert hypergeom_pmf(s, 1) == 0.0

    def test_count_above_infected_impossible(self):
        assert hypergeom_pmf(ImportScenario(10, 2, 3), 3) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            hypergeom_pmf(ImportScenario(10, 2, 3), -1)

    def test_invalid_scenario_rejected(self):
        with pytest.raises(DomainError):
            ImportScenario(10, 11, 3)
        with pytest.raises(DomainError):
            ImportScenario(10, 2, 11)
        with pytest.raises(DomainError):
            ImportScenario(0, 0, 0)

    def test_support_matches_enumeration(self):
        s = ImportScenario(8, 5, 6)
        nus, probs = pmf_support(s)
        oracle = enumerate_pmf(8, 5, 6)
        assert list(nus) == sorted(oracle)
        assert probs == pytest.approx([oracle[nu] for nu in nus], abs=1e-15)

    def test_normalization_and_mean_random_scenarios(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 5001))
            big_k = int(rng.integers(0, n + 1))
            k = int(rng.integers(0, n + 1))
            s = ImportScenario(n, big_k, k)
            nus, probs = pmf_support(s)
            assert abs(probs.sum() - 1.0) < 1e-12
            mean = float((nus * probs).sum())
            assert abs(mean - hypergeom_mean(s)) <= 1e-12 * max(1.0, hypergeom_mean(s))

    def test_normalization_large_population(self):
        nus, probs = pmf_support(ImportScenario(10**6, 10**4, 50))
        assert abs(probs.sum() - 1.0) < 1e-12


PMF_RTOL = 2e-14
# scipy evaluates the pmf in log space, errs by up to 6e-8 relative in far
# tails at N = 1e6 and returns 0.0 for some values as large as 4e-295
SCIPY_RTOL, SCIPY_ATOL = 1e-7, 1e-280
TINY = np.finfo(float).tiny


@cache
def primes_upto(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).tolist()


def factored_comb(n, k):
    """C(n, k) from its prime factorisation (Legendre's formula).

    The same integer as ``math.comb``, 40 times faster at n = 1e6, k = 5e5.
    """
    if not 0 <= k <= n:
        return 0
    factors = []
    for p in primes_upto(max(n, 10**6)):
        if p > n:
            break
        e, a, b, c = 0, n, k, n - k
        while a:
            a, b, c = a // p, b // p, c // p
            e += a - b - c
        if e:
            factors.append(p ** e)
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def assert_matches_scipy(s, nus, probs):
    expected = hypergeom.pmf(nus, s.population, s.infected, s.travelers)
    np.testing.assert_allclose(probs, expected, rtol=SCIPY_RTOL, atol=SCIPY_ATOL)


@st.composite
def scenarios(draw):
    n = int(10 ** draw(st.floats(2.0, 6.0)))
    return ImportScenario(n, draw(st.integers(0, n)), draw(st.integers(0, n)))


class TestRenormalisedPmf:
    @pytest.mark.parametrize("n", [0, 1, 2, 30, 97, 1000])
    def test_factored_comb_is_math_comb(self, n):
        assert [factored_comb(n, k) for k in range(-1, n + 2)] == \
            [comb(n, k) if 0 <= k else 0 for k in range(-1, n + 2)]
        assert factored_comb(123_457, 45_678) == comb(123_457, 45_678)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s=scenarios())
    def test_matches_exact_and_scipy(self, s):
        """pmf_support against hypergeom_pmf at the mode, both ends and the
        midpoint, and against scipy over the whole support.

        Against the correctly-rounded hypergeom_pmf, 3,000 random scenarios
        (N log-uniform in 1e2..1e6, K and k uniform) gave a worst relative
        error of 1.1e-14, about 50 ulp, far in a tail where rounding in the
        neighbor-ratio products accumulates. Sums were 1 within 2.2e-16.
        """
        nus, probs = pmf_support(s)
        assert abs(math.fsum(probs) - 1.0) <= 2.3e-16   # 1 ulp above 1.0
        lo, hi = s.support
        for nu in {lo, hi, (lo + hi) // 2, int(nus[np.argmax(probs)])}:
            assert probs[nu - lo] == pytest.approx(
                hypergeom_pmf(s, nu), rel=PMF_RTOL, abs=TINY)
        assert_matches_scipy(s, nus, probs)

    @pytest.mark.parametrize("s,nus", [
        (ImportScenario(10, 2, 3), range(0, 3)),
        (ImportScenario(97, 40, 61), range(4, 41)),
        (ImportScenario(123_457, 45_678, 3_000), (1_000, 1_110, 1_200)),
        (ImportScenario(10**6, 5 * 10**5, 5 * 10**5), (0, 249_000, 250_000))])
    def test_pmf_is_the_correctly_rounded_binomial_ratio(self, s, nus, monkeypatch):
        # the prime-exponent ratio and math.comb, each forced, give the
        # float of the ratio of the exact binomials
        for nu in nus:
            want = (factored_comb(s.infected, nu)
                    * factored_comb(s.population - s.infected, s.travelers - nu)
                    / factored_comb(s.population, s.travelers))
            assert hypergeom_pmf(s, nu) == want
            with monkeypatch.context() as patch:
                patch.setattr(importation, "_COMB_MAX", -1)
                assert hypergeom_pmf(s, nu) == want
            if s.population < 10**6:
                with monkeypatch.context() as patch:
                    patch.setattr(importation, "_SIEVE_MAX", 0)
                    assert hypergeom_pmf(s, nu) == want

    def test_few_travelers_sieve_no_primes(self, monkeypatch):
        # math.comb is cheap for a small min(k, N - k): a sieve up to N
        # would cost milliseconds for each new N
        def no_sieve(n):
            raise AssertionError(f"sieved the primes up to {n}")

        monkeypatch.setattr(importation, "_primes_upto", no_sieve)
        for s in (ImportScenario(10**6, 10**4, 10), ImportScenario(10**6, 10**4, 10**6 - 10)):
            lo, hi = s.support
            assert hypergeom_pmf(s, lo) == (
                factored_comb(s.infected, lo)
                * factored_comb(s.population - s.infected, s.travelers - lo)
                / factored_comb(s.population, s.travelers))
            assert 0.0 < import_tail_sum(s, hi) <= 1.0 + 1e-12

    def test_no_binomial_at_benchmark_scale(self, monkeypatch):
        def no_comb(*args):
            raise AssertionError("pmf_support evaluated a binomial coefficient")

        monkeypatch.setattr(importation, "comb", no_comb)
        s = ImportScenario(10**6, 5 * 10**4, 10**5)
        nus, probs = pmf_support(s)
        assert (nus[0], nus[-1]) == s.support
        assert_matches_scipy(s, nus, probs)


def whole_array_pmf(s):
    """``pmf_support`` as one whole-array formula: each side's neighbor
    ratios in one array, one ``np.cumprod`` a side, one division by the
    ``fsum``."""
    n, big_k, k = s.population, s.infected, s.travelers
    lo, hi = s.support
    nus = np.arange(lo, hi + 1, dtype=np.int64)
    if lo == hi:
        return nus, np.ones(1)
    mode = min(max((k + 1) * (big_k + 1) // (n + 2), lo), hi)
    probs = np.empty(nus.shape[0])
    anchor_idx = mode - lo
    probs[anchor_idx] = 1.0
    up = np.arange(mode, hi, dtype=np.float64)
    if up.shape[0]:
        ratios = ((big_k - up) * (k - up)) / ((up + 1.0) * (n - big_k - k + up + 1.0))
        probs[anchor_idx + 1:] = np.cumprod(ratios)
    down = np.arange(mode, lo, -1, dtype=np.float64)
    if down.shape[0]:
        ratios = (down * (n - big_k - k + down)) / ((big_k - down + 1.0) * (k - down + 1.0))
        probs[anchor_idx - 1::-1] = np.cumprod(ratios)
    return nus, probs / math.fsum(probs)


class TestBlockedPmf:
    # a block of one value costs about 9 us a value: 40 examples take 4 s
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=scenarios())
    def test_blocks_give_the_whole_array_bits(self, s):
        want_nus, want = whole_array_pmf(s)
        for block in (1, 3, 4096):
            with mock.patch.object(importation, "_PMF_BLOCK", block):
                nus, probs = pmf_support(s)
            assert np.array_equal(nus, want_nus)
            assert probs.tobytes() == want.tobytes(), f"block {block}"


class TestSupportCap:
    """A support past ``MAX_SUPPORT`` values is refused before anything is
    allocated; no support between the cap and numpy's dimension limit is
    ever built here, as its pmf would take gigabytes."""

    @pytest.mark.parametrize("s", [ImportScenario(10**21, 2 * 10**20, 10**20),
                                   ImportScenario(10**8, 5 * 10**7, 10**7)])
    def test_over_the_cap_raises_domain_error(self, s):
        lo, hi = s.support
        assert hi - lo + 1 > importation.MAX_SUPPORT
        for call in (importation._support_pmf, pmf_support, lambda s: import_tail_sum(s, 5)):
            with pytest.raises(DomainError, match="exceeds the cap of 10,000,000"):
                call(s)


class TestTailSums:
    def test_matches_enumeration(self):
        s = ImportScenario(10, 2, 3)
        assert import_tail_sum(s, 2) == pytest.approx(1 - 56 / 120, abs=1e-15)

    def test_empty_sum(self):
        assert import_tail_sum(ImportScenario(10, 2, 3), 0) == 0.0

    def test_no_infected_source(self):
        assert import_tail_sum(ImportScenario(10, 0, 3), 3) == 0.0

    def test_count_past_support_saturates(self):
        s = ImportScenario(10, 2, 3)
        assert import_tail_sum(s, 50) == pytest.approx(import_tail_sum(s, 2))

    def test_approx_two_terms(self):
        assert approx_tail_sum(2, 0.1, 2) == pytest.approx(0.21)

    def test_approx_zero_prevalence(self):
        assert approx_tail_sum(5, 0.0, 3) == 0.0

    def test_approx_single_term(self):
        assert approx_tail_sum(1, 0.05, 1) == pytest.approx(0.05)

    def test_approx_overflow_is_numerical_failure(self):
        # expected_imports raises for the same k and L
        with pytest.raises(NumericalFailure, match="limit-form tail sum overflow"):
            approx_tail_sum(100_000, 0.01, 100_000)
        with pytest.raises(NumericalFailure):
            expected_imports(100_000, 0.01)
        # a large finite sum is returned
        assert approx_tail_sum(5_000, 0.1, 5_000) == pytest.approx(
            1.1 ** 5_000 - 1.0, rel=1e-10)

    def test_approx_overflow_stops_at_the_first_inf(self):
        # the sum is inf within about 50 of its 10**7 terms
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match="limit-form tail sum overflow"):
            approx_tail_sum(10**7, 0.5, 10**7)
        assert time.perf_counter() - start < 0.1

    def test_approx_domain_errors(self):
        with pytest.raises(DomainError):
            approx_tail_sum(2, 1.5, 1)
        with pytest.raises(DomainError):
            approx_tail_sum(2, 0.1, 3)

    def test_exact_tail_converges_to_binomial_not_limit_form(self):
        # The limit form drops the (1-L)**(k-nu) factor, so the exact tail
        # converges (from above) to the binomial tail, which sits a constant
        # ~0.002 below the limit form here. Frozen values computed with
        # exact rational arithmetic.
        k, L, n = 5, 0.01, 2
        binom_tail = sum(comb(k, nu) * L**nu * (1 - L) ** (k - nu)
                         for nu in range(1, n + 1))
        frozen = {
            10**3: 0.04909914965004177,
            10**4: 0.049009994703811045,
            10**6: 0.04900019844120447,
        }
        prev_gap = None
        for n_pop, expected in frozen.items():
            s = ImportScenario(n_pop, round(L * n_pop), k)
            tail = import_tail_sum(s, n)
            assert tail == pytest.approx(expected, abs=1e-12)
            gap = abs(tail - binom_tail)
            if prev_gap is not None:
                assert gap < prev_gap  # converges to the binomial tail
            prev_gap = gap
        # while the distance to the limit form grows toward its constant floor
        approx = approx_tail_sum(k, L, n)
        assert abs(frozen[10**6] - approx) > abs(frozen[10**3] - approx)

    def test_exact_tail_meets_the_binomial_tail_at_one_over_n(self):
        # criterion 3's true limit: the hypergeometric tail tends to the
        # binomial one as N grows with L = K / N fixed, and the gap times N
        # settles near 0.0989 (0.09905 at N = 1e3, 0.09894 from 1e5 on)
        k, L, n = 5, 0.01, 2
        binom_tail = binom.cdf(n, k, L) - binom.pmf(0, k, L)
        for n_pop in (10**3, 10**4, 10**5, 10**6, 10**7):
            s = ImportScenario.from_prevalence(n_pop, L, k)
            scaled_gap = (import_tail_sum(s, n) - binom_tail) * n_pop
            assert 0.0989 <= scaled_gap <= 0.0991, (n_pop, scaled_gap)

    def test_exact_rational_cross_check(self):
        s = ImportScenario(1000, 10, 5)
        exact = sum(Fraction(comb(10, nu) * comb(990, 5 - nu), comb(1000, 5))
                    for nu in range(1, 3))
        assert import_tail_sum(s, 2) == pytest.approx(float(exact), abs=1e-15)


class TestOneTailSum:
    """import_tail_sum is the report's tail_sum, the running sum of the
    support pmf, at every scale."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s=scenarios())
    def test_is_the_report_tail_and_scipy(self, s):
        # scipy evaluates the pmf in log space: at N = 1e6, K = k = 1 its
        # pmf(0) errs by 1.1e-10 relative, an error that the difference
        # keeps where pmf(0) is near 1 and the tail small; below nu = 1 the
        # sum is empty, and scipy's cdf(0) - pmf(0) is that error alone
        lo, hi = s.support
        rows = cli._import_rows(s, None, 0)
        tails = rows.chunk(0, rows.n)[2]
        _, probs = pmf_support(s)
        dist = hypergeom(s.population, s.infected, s.travelers)
        for nu in {lo, hi, (lo + hi) // 2, lo + int(np.argmax(probs))}:
            tail = import_tail_sum(s, nu)
            assert np.float64(tail).tobytes() == tails[nu - lo].tobytes(), nu
            if nu == 0:
                assert tail == 0.0
            else:
                want, scipy_err = dist.cdf(nu) - dist.pmf(0), 1e-9 * dist.pmf(0)
                assert tail == pytest.approx(want, rel=1e-9, abs=scipy_err + 1e-15), nu

    def test_half_the_support_does_not_underflow(self):
        # pmf(1), about 5e-595 here, underflows: a sum anchored at the
        # support's edge was 0.0
        s = ImportScenario(2000, 1000, 1000)
        want = math.fsum(hypergeom_pmf(s, nu) for nu in range(1, 501))
        assert want == pytest.approx(0.517834551951791, abs=1e-15)
        assert import_tail_sum(s, 500) == pytest.approx(want, abs=1e-13)

    def test_no_binomial_at_scale(self, monkeypatch):
        def big_integers(*args):
            raise AssertionError("import_tail_sum reached the big-integer path")

        monkeypatch.setattr(importation, "comb", big_integers)
        monkeypatch.setattr(importation, "_primes_upto", big_integers)
        s = ImportScenario(10**6, 10**4, 5 * 10**5)
        assert import_tail_sum(s, 5_000) == pytest.approx(0.5040094205322007, rel=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            import_tail_sum(ImportScenario(10, 2, 3), -1)


def loop_expected_imports(k, prevalence):
    """The direct sum over nu = 1..k of nu C(k,nu) L**nu, term by term."""
    term, total = 1.0, 0.0
    for nu in range(1, k + 1):
        term *= (k - nu + 1) / nu * prevalence
        total += nu * term
    return total


class TestExpectedImports:
    @pytest.mark.parametrize("k", [1, 2, 7, 100, 1_000, 5_000, 100_000])
    @pytest.mark.parametrize("L", [0.0, 1e-5, 1e-3, 1e-2, 0.1, 1.0])
    def test_closed_form_matches_the_sum(self, k, L):
        # the loop overflows where the closed form raises
        want = loop_expected_imports(k, L)
        if not math.isfinite(want):
            with pytest.raises(NumericalFailure):
                expected_imports(k, L)
        else:
            assert expected_imports(k, L) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_overflow_is_numerical_failure_without_a_loop(self):
        for k in (10**8, 2**63, 10**400):
            with pytest.raises(NumericalFailure, match="expected imports overflow"):
                expected_imports(k, 0.01)

    def test_direct_sum_example(self):
        assert expected_imports(2, 0.1) == pytest.approx(0.22)

    def test_zero_prevalence(self):
        assert expected_imports(40, 0.0) == 0.0

    def test_single_traveler(self):
        assert expected_imports(1, 0.3) == pytest.approx(0.3)

    @pytest.mark.parametrize("L", [0.001, 0.01, 0.1, 0.5])
    def test_closed_form_identity(self, L):
        for k in (1, 2, 5, 17, 60, 143, 200):
            closed = k * L * (1 + L) ** (k - 1)
            assert expected_imports(k, L) == pytest.approx(closed, rel=1e-12)

    def test_exact_mean_examples(self):
        assert hypergeom_mean(ImportScenario(10_000, 100, 100)) == pytest.approx(1.0)
        assert hypergeom_mean(ImportScenario(10, 0, 3)) == 0.0
        assert hypergeom_mean(ImportScenario(10, 2, 3)) == pytest.approx(0.6)


class TestMonteCarlo:
    def test_no_infected_all_zero(self):
        draws = sample_imports(ImportScenario(10, 0, 3), seed=1, trials=1000)
        assert np.all(draws == 0)

    def test_everyone_infected_all_k(self):
        draws = sample_imports(ImportScenario(10, 10, 3), seed=5, trials=500)
        assert np.all(draws == 3)

    def test_mean_within_three_standard_errors(self):
        s = ImportScenario(10, 2, 3)
        draws = sample_imports(s, seed=42, trials=100_000)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.6) <= 3 * se

    def test_seed_determinism(self):
        s = ImportScenario(100, 17, 9)
        a = sample_imports(s, seed=123, trials=1000)
        b = sample_imports(s, seed=123, trials=1000)
        assert np.array_equal(a, b)
        c = sample_imports(s, seed=124, trials=1000)
        assert not np.array_equal(a, c)

    def test_empirical_pmf_within_four_standard_errors(self):
        s = ImportScenario(10, 2, 3)
        draws = sample_imports(s, seed=42, trials=100_000)
        nus, probs = pmf_support(s)
        counts = np.bincount(draws, minlength=int(nus[-1]) + 1)
        for nu, p in zip(nus, probs):
            freq = counts[nu] / draws.size
            se = np.sqrt(p * (1 - p) / draws.size)
            assert abs(freq - p) <= 4 * se

    def test_trials_validated(self):
        for sample in (sample_imports, sample_counts):
            with pytest.raises(DomainError):
                sample(ImportScenario(10, 2, 3), seed=1, trials=0)

    @pytest.mark.parametrize("s", [ImportScenario(1000, 300, 200),
                                   ImportScenario(10**6, 5 * 10**4, 10**5),
                                   ImportScenario(50, 0, 7), ImportScenario(50, 50, 7),
                                   ImportScenario(50, 40, 30)],
                             ids=["small", "large", "K=0", "K=N", "lo>0"])
    def test_counts_are_the_per_trial_draws_counted(self, s):
        # the blocked draws are the one-call stream, block edges included
        block = importation._DRAW_BLOCK
        lo, hi = s.support
        for trials in (1, block - 1, block, block + 1, 100_003):
            counts = sample_counts(s, seed=17, trials=trials)
            want = np.bincount(sample_imports(s, seed=17, trials=trials), minlength=hi + 1)
            assert counts.dtype == want.dtype
            assert np.array_equal(counts, want[lo:]), trials
