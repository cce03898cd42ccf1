"""Hot numeric kernels: numba-compiled loops with pure-numpy fallbacks.

The backend is chosen at import time. Set ``EPICOST_NUMBA=0`` in the
environment to force the numpy fallbacks; otherwise numba is used when it
imports cleanly. ``BACKEND`` reports which path is active, and the ``*_py``
implementations stay importable either way so the two can be benchmarked
against each other (see ``benchmarks/bench_kernels.py``). The schedule
scan ``two_segment_costs`` has one implementation, in numpy, on either
backend.

Kernels assume domain-valid inputs; validation lives in the calling modules.
Transmission-curve parameters are passed flat as
``(c0, a_tti, x_tti, jump, a_wide, gamma)``, border as ``(b0, i_free, beta)``
and outbreak as ``(omega, delta)``.
"""

import os

import numpy as np

_flag = os.environ.get("EPICOST_NUMBA", "1").strip().lower()
USE_NUMBA = _flag not in ("0", "false", "no", "off")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:
        USE_NUMBA = False

BACKEND = "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations

def transmission_cost_arr_py(x, c0, a_tti, x_tti, jump, a_wide, gamma):
    x = np.asarray(x, dtype=np.float64)
    out = c0 + a_tti * np.minimum(x, x_tti)
    over = x > x_tti
    if np.any(over):
        excess = np.where(over, x - x_tti, 0.0)
        out = np.where(over, c0 + a_tti * x_tti + jump + a_wide * excess**gamma, out)
    return out


def border_cost_arr_py(imports, b0, i_free, beta):
    imports = np.asarray(imports, dtype=np.float64)
    slack = np.maximum(1.0 - imports / i_free, 0.0)
    return b0 * slack**beta


def outbreak_cost_arr_py(x, omega, delta):
    x = np.asarray(x, dtype=np.float64)
    return omega * x**delta


def policy_cost_grid_py(t, base_cases, import_scale, alpha,
                        c0, a_tti, x_tti, jump, a_wide, gamma,
                        b0, i_free, beta):
    """Transmission-plus-border cost along a policy axis.

    Case load is ``base_cases + alpha * import_scale * t`` and the border
    curve is evaluated at ``import_scale * t``. With ``base_cases=0,
    import_scale=1`` the axis is the import level itself; with
    ``base_cases=x, import_scale=I`` it is the screening factor.
    """
    t = np.asarray(t, dtype=np.float64)
    cases = base_cases + alpha * import_scale * t
    ct = transmission_cost_arr_py(cases, c0, a_tti, x_tti, jump, a_wide, gamma)
    cb = border_cost_arr_py(import_scale * t, b0, i_free, beta)
    return ct + cb


def simulate_cases_py(x0, r_seq, imports_seq, alpha):
    T = r_seq.shape[0]
    cases = np.empty(T + 1)
    cases[0] = x0
    for t in range(T):
        cases[t + 1] = r_seq[t] * cases[t] + alpha * imports_seq[t]
    return cases


def two_segment_costs(r_first, r_second, switch, horizon, x0, r0, r_min, g_exp,
                      c0, a_tti, x_tti, jump, a_wide, gamma, omega, delta):
    """Cumulative no-travel cost of two-segment reproduction schedules.

    Schedule ``i`` holds ``r_first[i]`` on days ``t < switch[i]`` and
    ``r_second[i]`` from then on. Daily cost is ``c_T(x) * g(R) + c_O(x)``
    with stringency weight ``g(R) = ((r0 - R) / (r0 - r_min)) ** g_exp``.
    Returns ``(totals, max_cases, final_cases)``, one entry per schedule.
    Memory is O(n): each day's R is picked from the triples, never stored
    as an n-by-horizon matrix.
    """
    denom = r0 - r_min
    x = np.full(r_first.shape[0], x0, dtype=np.float64)
    totals = np.zeros(r_first.shape[0])
    max_cases = x.copy()
    for t in range(horizon):
        r = np.where(t < switch, r_first, r_second)
        g = ((r0 - r) / denom) ** g_exp
        ct = transmission_cost_arr_py(x, c0, a_tti, x_tti, jump, a_wide, gamma)
        totals += ct * g + omega * x**delta
        x = r * x
        np.maximum(max_cases, x, out=max_cases)
    return totals, max_cases, x


# ---------------------------------------------------------------------------
# numba implementations (explicit loops)

def _transmission_cost_arr_loop(x, c0, a_tti, x_tti, jump, a_wide, gamma):
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        xi = x[i]
        if xi <= x_tti:
            out[i] = c0 + a_tti * xi
        else:
            out[i] = c0 + a_tti * x_tti + jump + a_wide * (xi - x_tti) ** gamma
    return out


def _border_cost_arr_loop(imports, b0, i_free, beta):
    out = np.empty(imports.shape[0])
    for i in range(imports.shape[0]):
        slack = 1.0 - imports[i] / i_free
        if slack < 0.0:
            slack = 0.0
        out[i] = b0 * slack**beta
    return out


def _outbreak_cost_arr_loop(x, omega, delta):
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        out[i] = omega * x[i] ** delta
    return out


def _policy_cost_grid_loop(t, base_cases, import_scale, alpha,
                           c0, a_tti, x_tti, jump, a_wide, gamma,
                           b0, i_free, beta):
    out = np.empty(t.shape[0])
    for i in range(t.shape[0]):
        cases = base_cases + alpha * import_scale * t[i]
        if cases <= x_tti:
            ct = c0 + a_tti * cases
        else:
            ct = c0 + a_tti * x_tti + jump + a_wide * (cases - x_tti) ** gamma
        slack = 1.0 - import_scale * t[i] / i_free
        if slack < 0.0:
            slack = 0.0
        out[i] = ct + b0 * slack**beta
    return out


def _simulate_cases_loop(x0, r_seq, imports_seq, alpha):
    T = r_seq.shape[0]
    cases = np.empty(T + 1)
    cases[0] = x0
    for t in range(T):
        cases[t + 1] = r_seq[t] * cases[t] + alpha * imports_seq[t]
    return cases


if USE_NUMBA:
    transmission_cost_arr = njit(cache=True)(_transmission_cost_arr_loop)
    border_cost_arr = njit(cache=True)(_border_cost_arr_loop)
    outbreak_cost_arr = njit(cache=True)(_outbreak_cost_arr_loop)
    policy_cost_grid = njit(cache=True)(_policy_cost_grid_loop)
    simulate_cases = njit(cache=True)(_simulate_cases_loop)
else:
    transmission_cost_arr = transmission_cost_arr_py
    border_cost_arr = border_cost_arr_py
    outbreak_cost_arr = outbreak_cost_arr_py
    policy_cost_grid = policy_cost_grid_py
    simulate_cases = simulate_cases_py


def warmup():
    """Trigger JIT compilation of every kernel (no-op on the numpy backend)."""
    t = np.linspace(0.0, 1.0, 4)
    transmission_cost_arr(t, 1.0, 0.5, 10.0, 0.0, 1.0, 2.0)
    border_cost_arr(t, 2.0, 4.0, 1.0)
    outbreak_cost_arr(t, 1.0, 1.0)
    policy_cost_grid(t, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0, 1.0)
    simulate_cases(1.0, t, t, 1.0)
