import os
import subprocess
import sys

import numpy as np
import pytest

from epicost import _kernels as K


def random_ct_params(rng):
    slope = float(rng.uniform(0.0, 1.0))
    cap = float(rng.choice([0.0, 5.0, np.inf]))
    return (float(rng.uniform(0.5, 2.0)), slope, cap,
            float(rng.uniform(0.0, 2.0)), slope + 0.5,
            float(rng.uniform(1.0, 2.5)))


class TestBackendAgreement:
    """The jit kernels and the numpy fallbacks must agree bit-for-bit-ish."""

    def test_transmission_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            params = random_ct_params(rng)
            x = rng.uniform(0.0, 12.0, 257)
            fast = K.transmission_cost_arr(x, *params)
            ref = K.transmission_cost_arr_py(x, *params)
            np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=0)

    def test_border_grid(self):
        rng = np.random.default_rng(1)
        imports = rng.uniform(0.0, 4.0, 300)
        fast = K.border_cost_arr(imports, 2.0, 4.0, 2.3)
        ref = K.border_cost_arr_py(imports, 2.0, 4.0, 2.3)
        np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=0)

    def test_outbreak_grid(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 50.0, 300)
        np.testing.assert_allclose(K.outbreak_cost_arr(x, 0.7, 1.6),
                                   K.outbreak_cost_arr_py(x, 0.7, 1.6),
                                   rtol=1e-14, atol=0)

    def test_policy_cost_grid(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 1.0, 1001)
        for _ in range(5):
            ct = random_ct_params(rng)
            args = (float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 4.0)),
                    float(rng.uniform(1.0, 2.0)))
            cb = (2.0, 4.0, float(rng.uniform(1.0, 3.0)))
            fast = K.policy_cost_grid(t, *args, *ct, *cb)
            ref = K.policy_cost_grid_py(t, *args, *ct, *cb)
            np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=1e-300)

    def test_simulate_cases(self):
        rng = np.random.default_rng(4)
        r = rng.uniform(0.5, 2.5, 64)
        imports = rng.uniform(0.0, 2.0, 64)
        fast = K.simulate_cases(13.0, r, imports, 1.7)
        ref = K.simulate_cases_py(13.0, r, imports, 1.7)
        np.testing.assert_allclose(fast, ref, rtol=1e-13, atol=0)


def scan_and_check(r_first, r_second, switch, horizon, x0, ct, co):
    """Run the scan; check each schedule against ``simulate_cases``."""
    r0, r_min = 2.5, 0.5
    totals, max_cases, finals = K.two_segment_costs(
        r_first, r_second, switch, horizon, x0, r0, r_min, 1.0, *ct, *co)
    for i in range(r_first.shape[0]):
        r = np.where(np.arange(horizon) < switch[i], r_first[i], r_second[i])
        cases = K.simulate_cases(x0, r, np.zeros(horizon), 1.0)
        live = cases[:horizon]
        daily = (K.transmission_cost_arr(live, *ct) * (r0 - r) / (r0 - r_min)
                 + K.outbreak_cost_arr(live, *co))
        assert totals[i] == pytest.approx(daily.sum(), rel=1e-12)
        assert finals[i] == pytest.approx(cases[-1], rel=1e-12)
        assert max_cases[i] == pytest.approx(cases.max(), rel=1e-12)


class TestTwoSegmentCosts:
    """The numpy schedule scan, schedule by schedule, against the recurrence."""

    def test_random_schedules(self):
        rng = np.random.default_rng(5)
        r_first, r_second = rng.uniform(0.5, 2.5, (2, 40))
        switch = rng.integers(0, 26, 40)
        scan_and_check(r_first, r_second, switch, 25, 30.0,
                       random_ct_params(rng), (0.5, 1.3))

    def test_matches_single_trajectory(self):
        rng = np.random.default_rng(6)
        r_first, r_second = rng.uniform(0.5, 2.5, (2, 7))
        switch = rng.integers(0, 21, 7)
        scan_and_check(r_first, r_second, switch, 20, 80.0,
                       (1.0, 0.3, 50.0, 5.0, 0.8, 1.5), (1.0, 1.0))


class TestBackendSelection:
    def test_env_flag_forces_numpy(self):
        env = dict(os.environ, EPICOST_NUMBA="0")
        out = subprocess.run(
            [sys.executable, "-c", "from epicost import _kernels; print(_kernels.BACKEND)"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "numpy"

    def test_default_backend_reported(self):
        assert K.BACKEND in ("numba", "numpy")

    def test_numpy_backend_produces_same_cli_output(self, tmp_path):
        from epicost.fixtures import fixture_path
        fix = str(fixture_path("one_region_quadratic"))
        results = {}
        for flag in ("1", "0"):
            out = tmp_path / f"backend_{flag}"
            env = dict(os.environ, EPICOST_NUMBA=flag)
            subprocess.run(
                [sys.executable, "-m", "epicost", "optimize",
                 "--config", fix, "--out", str(out)],
                capture_output=True, text=True, env=env, check=True)
            results[flag] = (out / "optimize.json").read_bytes()
        assert results["1"] == results["0"]
