"""Benchmark the jit-compiled kernels against their pure-numpy fallbacks.

Run from the repo root:

    python benchmarks/bench_kernels.py
    EPICOST_NUMBA=0 python benchmarks/bench_kernels.py   # numpy-only build

With numba active both implementations are importable, so the table below
times them side by side in one process (first jit call is excluded via a
warmup pass). The schedule scan ``two_segment_costs`` has a numpy
implementation only, so it is not listed.
"""

import argparse
import time

import numpy as np

from epicost import _kernels as K

CT = (1.0, 0.3, 50.0, 5.0, 0.6, 1.5)      # transmission params
CB = (3.0, 5.0, 2.0)                       # border params


def time_call(fn, *args, repeats):
    fn(*args)  # warmup (jit compile / cache load)
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=100_000,
                        help="policy grid size (default 1e5)")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, args.grid)
    r_seq = rng.uniform(0.5, 2.5, 10_000)
    imports_seq = rng.uniform(0.0, 2.0, 10_000)

    cases = [
        ("policy_cost_grid", K.policy_cost_grid, K.policy_cost_grid_py,
         (grid, 0.0, 4.0, 2.0, *CT, *CB)),
        ("simulate_cases(T=1e4)", K.simulate_cases, K.simulate_cases_py,
         (50.0, r_seq * 0.0 + 0.99, imports_seq, 1.0)),
        ("transmission_cost_arr", K.transmission_cost_arr,
         K.transmission_cost_arr_py, (grid * 120.0, *CT)),
    ]

    print(f"active backend: {K.BACKEND}")
    header = f"{'kernel':<24} {'active':>12} {'numpy-fallback':>16} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, active, fallback, call_args in cases:
        t_active = time_call(active, *call_args, repeats=args.repeats)
        t_numpy = time_call(fallback, *call_args, repeats=args.repeats)
        ratio = t_numpy / t_active if t_active > 0 else float("inf")
        print(f"{name:<24} {t_active * 1e3:>10.3f}ms {t_numpy * 1e3:>14.3f}ms "
              f"{ratio:>8.1f}x")


if __name__ == "__main__":
    main()
