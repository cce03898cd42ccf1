"""Hot numeric kernels, one numpy implementation each.

The optimizer grid, the trajectory simulator and the schedule scan run
here. The cost formulas themselves live on the curves in ``costs``
(``cost_arr``), so each kernel takes curve objects and combines them.
``policy_cost_grid`` takes arrays of any shape.

Kernels assume domain-valid inputs; validation lives in the calling modules.
"""

import numpy as np


def policy_cost_grid(t, base_cases, import_scale, curves):
    """Transmission-plus-border cost along a policy axis.

    Case load is ``base_cases + alpha * import_scale * t`` and the border
    curve is evaluated at ``import_scale * t``. With ``base_cases=0,
    import_scale=1`` the axis is the import level itself; with
    ``base_cases=x, import_scale=I`` it is the screening factor.
    """
    t = np.asarray(t, dtype=np.float64)
    cases = base_cases + curves.import_multiplier * import_scale * t
    return curves.transmission.cost_arr(cases) + curves.border.cost_arr(import_scale * t)


def simulate_cases(x0, r_seq, imports_seq, alpha):
    T = r_seq.shape[0]
    cases = np.empty(T + 1)
    cases[0] = x0
    for t in range(T):
        cases[t + 1] = r_seq[t] * cases[t] + alpha * imports_seq[t]
    return cases


def two_segment_costs(r_first, r_second, switch, horizon, x0, params, curves):
    """Cumulative no-travel cost of two-segment reproduction schedules.

    Schedule ``i`` holds ``r_first[i]`` on days ``t < switch[i]`` and
    ``r_second[i]`` from then on. Daily cost is ``c_T(x) * g(R) + c_O(x)``
    with the stringency weight ``g`` of the dynamics ``params``.
    Returns ``(totals, max_cases, final_cases)``, one entry per schedule.
    Memory is O(n): each day's R is picked from the triples, never stored
    as an n-by-horizon matrix.
    """
    ct, co = curves.transmission, curves.outbreak
    x = np.full(r_first.shape[0], x0, dtype=np.float64)
    totals = np.zeros(r_first.shape[0])
    max_cases = x.copy()
    for t in range(horizon):
        r = np.where(t < switch, r_first, r_second)
        # named, these two stay alive beside the sum's temporaries; as one
        # expression the day's peak drops and glibc trims and re-faults the
        # heap every day (a third slower at 380k schedules)
        g = params.weight(r)
        cost = ct.cost_arr(x)
        totals += cost * g + co.cost_arr(x)
        x = r * x
        np.maximum(max_cases, x, out=max_cases)
    return totals, max_cases, x
