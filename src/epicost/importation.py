"""Probability models for infectious travelers imported between regions.

The exact model draws k travelers uniformly without replacement from a
population of N containing K infectious people, so the imported count is
hypergeometric. A limit form for small samples from large populations
(k << K << N) replaces the pmf terms with C(k, nu) * L**nu at prevalence
L = K / N; note this form drops the (1 - L)**(k - nu) factor, so its tail
sums are not a normalized distribution and overcount at high prevalence.

The ``import-dist`` command reports the full-support pmf, its tail sums
and the Monte Carlo counts; ``expected_imports`` sets the import threat of
``game``, ``optimize`` and ``simulate``. The limit form's tail sum is the
acceptance criteria's. Single pmf values (``hypergeom_pmf``), the tests'
exact oracle, are correctly-rounded floats of a ratio of binomial
coefficients, built as one big-integer numerator and one denominator from
prime exponents (Legendre's formula). The full-support pmf
(``pmf_support``) evaluates no binomial coefficient: it sets the mode to 1,
extends it outward by the neighbor ratio, whose integer factors are exact
in float64 for N <= 1e6, and divides by the sum. Its values stay within
2e-14 relative of the correctly-rounded ones in the randomised tests, and
sum to 1 within an ulp. Exact tail sums, ``import_tail_sum``'s and the
``import-dist`` report's alike, are running sums of it (``_tail_sums``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb, fsum, isfinite

from ._record import Record
from .errors import DomainError, NumericalFailure


class ImportScenario(Record):
    """Population N with K infectious members, from which k people travel."""

    population: int
    infected: int
    travelers: int

    def __post_init__(self):
        n, big_k, k = self.population, self.infected, self.travelers
        if not (isinstance(n, int) and isinstance(big_k, int) and isinstance(k, int)):
            raise DomainError("scenario fields must be integers")
        if n < 1:
            raise DomainError(f"population must be >= 1, got {n}")
        if not 0 <= big_k <= n:
            raise DomainError(f"infected must lie in [0, {n}], got {big_k}")
        if not 0 <= k <= n:
            raise DomainError(f"travelers must lie in [0, {n}], got {k}")

    @classmethod
    def from_prevalence(cls, population: int, prevalence: float, travelers: int):
        """Build a scenario with the infected count rounded from a prevalence."""
        if not 0.0 <= prevalence <= 1.0:
            raise DomainError(f"prevalence must lie in [0, 1], got {prevalence}")
        return cls(population, round(prevalence * population), travelers)

    @property
    def support(self) -> tuple[int, int]:
        """Inclusive bounds of the imported-count support."""
        lo = max(0, self.travelers - (self.population - self.infected))
        hi = min(self.travelers, self.infected)
        return lo, hi


# hypergeom_pmf builds the binomials with math.comb past either limit.
# Largest population whose primes it sieves: at N = 1e6 one sieve and ratio
# took 0.2 s where math.comb took 18.6 s; past it the sieve would hold N
# bytes. Largest min(k, N - k) it leaves to math.comb, whose work grows with
# it while the sieve's grows with N: math.comb took 0.7 ms at 1,000 against
# 5.3 ms for the sieve at N = 1e6, and 2.3 ms at 3,000 against 0.6 at N = 1e4
_SIEVE_MAX = 10**7
_COMB_MAX = 2_000


@lru_cache(maxsize=1)
def _primes_upto(n: int) -> np.ndarray:
    """The primes up to ``n`` (a sieve of Eratosthenes), as int64."""
    import numpy as np

    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def _product(factors: list[int]) -> int:
    """The product of big integers, multiplied pairwise in a balanced tree."""
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def hypergeom_pmf(s: ImportScenario, nu: int) -> float:
    """Probability that exactly ``nu`` of the k travelers are infectious,
    the correctly-rounded float of C(K,nu) C(N-K,k-nu) / C(N,k).

    The ratio of factorials ``K! (N-K)! k! (N-k)!`` over ``nu! (K-nu)! (k-nu)!
    (N-K-k+nu)! N!`` is reduced to one exponent per prime ``p <= N`` by Legendre's
    formula (``m!`` holds ``p`` to the power ``sum_i m // p**i``); the primes with
    positive exponents make one integer and those with negative exponents another,
    divided once. Python's int/int true division rounds correctly, so the float
    equals that of the binomials' ratio, whatever the reduction. Where ``min(k, N
    - k)`` is small, which bounds the smaller side of every binomial, or ``N`` is
    large, ``math.comb`` builds them instead.

    Job: the exact oracle for ``pmf_support`` in ``tests/test_importation.py``.
    """
    if nu < 0:
        raise DomainError(f"count must be >= 0, got {nu}")
    lo, hi = s.support
    if nu < lo or nu > hi:
        return 0.0
    n, big_k, k = s.population, s.infected, s.travelers
    if n > _SIEVE_MAX or min(k, n - k) <= _COMB_MAX:
        num = comb(big_k, nu) * comb(n - big_k, k - nu)
        return num / comb(n, k)
    import numpy as np

    primes = _primes_upto(n)
    factorials = ((1, big_k), (1, n - big_k), (1, k), (1, n - k), (-1, nu),
                  (-1, big_k - nu), (-1, k - nu), (-1, n - big_k - k + nu), (-1, n))
    exponents = np.zeros(primes.shape[0], dtype=np.int64)
    power = primes   # p**i for the primes with p**i <= n: a prefix of them
    while power.shape[0]:
        for sign, m in factorials:
            exponents[:power.shape[0]] += sign * (m // power)
        keep = np.count_nonzero(power <= n // primes[:power.shape[0]])
        power = power[:keep] * primes[:keep]
    up, down = exponents > 0, exponents < 0
    num = _product([p**e for p, e in zip(primes[up].tolist(), exponents[up].tolist())])
    den = _product([p**-e for p, e in zip(primes[down].tolist(), exponents[down].tolist())])
    return num / den


def pmf_support(s: ImportScenario) -> tuple[np.ndarray, np.ndarray]:
    """Full pmf over the support: the counts ``lo .. hi`` as int64, and
    ``_support_pmf``'s probabilities."""
    import numpy as np

    lo, hi = s.support
    return np.arange(lo, hi + 1, dtype=np.int64), _support_pmf(s)


def _support_pmf(s: ImportScenario) -> np.ndarray:
    """The pmf at each support value ``lo .. hi``, 8 bytes a value.

    The mode is set to 1 and extended outward by the neighbor ratio
    pmf(nu+1)/pmf(nu) = (K-nu)(k-nu) / ((nu+1)(N-K-k+nu+1)); the integer
    products stay below 2**53 for N <= 1e6, so each ratio is exact. The
    ratios and their running products are computed ``_PMF_BLOCK`` values
    at a time, straight into the result (``_ratio_products``), which is
    then divided by its ``fsum`` in place; beside the result, only
    block-sized temporaries are held. Against the correctly-rounded
    ``hypergeom_pmf``, on 3,000 random scenarios (N log-uniform in
    1e2..1e6, K and k uniform), the worst relative error was 1.1e-14
    (about 50 ulp, far in a tail, where rounding in the ratio products
    accumulates) and the sum was 1 within 2.2e-16.
    """
    import numpy as np

    n, big_k, k = s.population, s.infected, s.travelers
    lo, hi = s.support
    mode = min(max((k + 1) * (big_k + 1) // (n + 2), lo), hi)
    probs = np.empty(hi - lo + 1)
    anchor_idx = mode - lo
    probs[anchor_idx] = 1.0
    rest = n - big_k - k
    # pmf(mode + j + 1) and pmf(mode - j - 1) for j = 0, 1, ..., over pmf(mode)
    _ratio_products(probs[anchor_idx + 1:], mode, 1,
                    lambda nu: ((big_k - nu) * (k - nu)) / ((nu + 1.0) * (rest + nu + 1.0)))
    _ratio_products(probs[:anchor_idx][::-1], mode, -1,
                    lambda nu: (nu * (rest + nu)) / ((big_k - nu + 1.0) * (k - nu + 1.0)))
    probs /= fsum(probs)
    return probs


# values of the pmf's neighbor ratios computed per step of _ratio_products
_PMF_BLOCK = 4096


def _ratio_products(out: np.ndarray, first: int, step: int, ratio) -> None:
    """Fill ``out[j]`` with the running product of ``ratio(nu)`` over
    ``nu = first, first + step, ..., first + j * step``.

    Each block of ``_PMF_BLOCK`` values is evaluated into its slice of
    ``out`` and multiplied through in place, its first value times the
    last product of the block before. ``np.cumprod`` multiplies in order,
    so the products are those of one ``np.cumprod`` over every value, bit
    for bit.
    """
    import numpy as np

    carry = 1.0
    for lo in range(0, out.shape[0], _PMF_BLOCK):
        block = out[lo:lo + _PMF_BLOCK]
        start = first + lo * step
        nu = np.arange(start, start + block.shape[0] * step, step, dtype=np.float64)
        block[...] = ratio(nu)
        block[0] *= carry
        np.cumprod(block, out=block)
        carry = block[-1]


def _tail_sums(probs: np.ndarray, first: int) -> np.ndarray:
    """Lower-tail sums, nu = 0 left out, of the support pmf ``probs`` from
    ``first`` on: one in-order ``np.cumsum``, so a prefix has the whole's bits."""
    import numpy as np

    tails = probs.copy()
    if first == 0:
        tails[0] = 0.0
    np.cumsum(tails, out=tails)
    return tails


def import_tail_sum(s: ImportScenario, n: int) -> float:
    """Sum of pmf over nu = 1..n (the displayed lower-tail sum, nu=0 excluded):
    ``_tail_sums`` at ``min(n, hi)``, the report's ``tail_sum`` bits."""
    if n < 0:
        raise DomainError(f"count must be >= 0, got {n}")
    lo, hi = s.support
    if n < max(1, lo):
        return 0.0
    return float(_tail_sums(_support_pmf(s), lo)[min(n, hi) - lo])


def approx_tail_sum(k: int, prevalence: float, n: int) -> float:
    """Limit-form tail sum: C(k,nu) L**nu over nu = 1..n.

    Not a normalized distribution (the binomial (1-L)**(k-nu) factor is
    deliberately absent); accurate only when k * L is small. Raises
    ``NumericalFailure`` when the sum overflows a float.
    """
    if not 0.0 <= prevalence <= 1.0:
        raise DomainError(f"prevalence must lie in [0, 1], got {prevalence}")
    if not 0 <= n <= k:
        raise DomainError(f"count must lie in [0, {k}], got {n}")
    # running term C(k,nu) L**nu avoids huge intermediate binomials
    term, total = 1.0, 0.0
    for nu in range(1, n + 1):
        term *= (k - nu + 1) / nu * prevalence
        total += term
        if not isfinite(total):   # inf from here on: stop at the overflow
            raise NumericalFailure(
                f"limit-form tail sum overflow for {k} travelers at prevalence {prevalence}")
    return total


def expected_imports(k: int, prevalence: float) -> float:
    """Expected imported cases per day in the limit form.

    The sum over nu = 1..k of nu C(k,nu) L**nu is k L (1+L)**(k-1),
    evaluated in O(1) as ``k * L * exp((k - 1) * log1p(L))``. May be
    fractional. Raises ``NumericalFailure`` when it overflows a float.
    """
    if k < 0:
        raise DomainError(f"traveler count must be >= 0, got {k}")
    if not 0.0 <= prevalence <= 1.0:
        raise DomainError(f"prevalence must lie in [0, 1], got {prevalence}")
    try:
        total = k * prevalence * math.exp((k - 1) * math.log1p(prevalence))
    except OverflowError:
        total = math.inf
    if not isfinite(total):
        raise NumericalFailure(
            f"expected imports overflow for {k} travelers at prevalence {prevalence}")
    return total


def hypergeom_mean(s: ImportScenario) -> float:
    """Exact expected imported cases: k K / N."""
    return s.travelers * s.infected / s.population


def sample_imports(s: ImportScenario, seed: int, trials: int) -> np.ndarray:
    """Monte Carlo oracle: per-trial infected counts among k draws without replacement.

    The same seed always yields the same sequence. Sampling goes through
    numpy's hypergeometric generator, independent of the combinatorial pmf
    code above, so the two can cross-check each other.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    import numpy as np

    rng = np.random.default_rng(seed)
    return rng.hypergeometric(s.infected, s.population - s.infected,
                              s.travelers, size=trials)


# draws made per step of sample_counts
_DRAW_BLOCK = 4096


def sample_counts(s: ImportScenario, seed: int, trials: int) -> np.ndarray:
    """Monte Carlo counts of each support value, ``lo .. hi``, over ``trials`` trials.

    The draws are those of ``sample_imports(s, seed, trials)``, made
    ``_DRAW_BLOCK`` at a time from the same generator (numpy's
    hypergeometric sampler gives the same stream in blocks as in one
    call) and added into the counts, so memory is the support's and a
    block's, not a trial's.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    import numpy as np

    lo, hi = s.support
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for done in range(0, trials, _DRAW_BLOCK):
        draws = rng.hypergeometric(s.infected, s.population - s.infected, s.travelers,
                                   size=min(_DRAW_BLOCK, trials - done))
        draws -= lo
        np.add.at(counts, draws, 1)
    return counts
