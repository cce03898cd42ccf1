"""Hot numeric kernels, one numpy implementation each.

The cost curves, the optimizer grid, the trajectory simulator and the
schedule scan evaluate their curves here. The curve kernels and
``policy_cost_grid`` take arrays of any shape.

Kernels assume domain-valid inputs; validation lives in the calling modules.
Transmission-curve parameters are passed flat as
``(c0, a_tti, x_tti, jump, a_wide, gamma)``, border as ``(b0, i_free, beta)``
and outbreak as ``(omega, delta)``.
"""

import numpy as np


def transmission_cost_arr(x, c0, a_tti, x_tti, jump, a_wide, gamma):
    x = np.asarray(x, dtype=np.float64)
    out = c0 + a_tti * np.minimum(x, x_tti)
    over = x > x_tti
    if np.any(over):
        excess = np.where(over, x - x_tti, 0.0)
        out = np.where(over, c0 + a_tti * x_tti + jump + a_wide * excess**gamma, out)
    return out


def border_cost_arr(imports, b0, i_free, beta):
    imports = np.asarray(imports, dtype=np.float64)
    slack = np.maximum(1.0 - imports / i_free, 0.0)
    return b0 * slack**beta


def outbreak_cost_arr(x, omega, delta):
    x = np.asarray(x, dtype=np.float64)
    return omega * x**delta


def policy_cost_grid(t, base_cases, import_scale, alpha,
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
    ct = transmission_cost_arr(cases, c0, a_tti, x_tti, jump, a_wide, gamma)
    cb = border_cost_arr(import_scale * t, b0, i_free, beta)
    return ct + cb


def simulate_cases(x0, r_seq, imports_seq, alpha):
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
        ct = transmission_cost_arr(x, c0, a_tti, x_tti, jump, a_wide, gamma)
        totals += ct * g + omega * x**delta
        x = r * x
        np.maximum(max_cases, x, out=max_cases)
    return totals, max_cases, x
