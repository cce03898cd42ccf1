import csv
import json
import math
import warnings

import pytest

from epicost.cli import main
from epicost.errors import InvariantViolation
from epicost.fixtures import fixture_path


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def csv_config_echo(path):
    with open(path) as fh:
        first = fh.readline()
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


class TestCommands:
    def test_validate_ok(self, tmp_path):
        code = run_cli("validate", "--config", str(fixture_path("two_region_symmetric")),
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        assert report["all_pass"] is True
        assert set(report["regions"]) == {"A", "B"}

    def test_validate_flags_bad_shape(self, tmp_path):
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["regions"][0]["curves"]["border"]["b0"] = 0.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = run_cli("validate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        report = json.loads((tmp_path / "validate.json").read_text())
        assert report["all_pass"] is False
        checks = {c["name"]: c["passed"] for c in report["regions"]["home"]["checks"]}
        assert checks["border.closure_cost_positive"] is False

    def test_optimize_reports_fractional_interior(self, tmp_path):
        code = run_cli("optimize", "--config", str(fixture_path("one_region_quadratic")),
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "optimize.json").read_text())
        res = report["regions"]["home"]["imports"]
        assert res["argument"] == pytest.approx(0.25, abs=1e-6)
        assert res["cost"] == pytest.approx(2.9375, abs=1e-6)
        assert res["classification"] == "interior"

    def test_optimize_screening_trio(self, tmp_path):
        code = run_cli("optimize", "--config", str(fixture_path("boundary_trio")),
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "optimize.json").read_text())
        regions = report["regions"]
        assert regions["quad"]["screening"]["screening"] == pytest.approx(0.0625, abs=1e-6)
        assert regions["steep"]["screening"]["screening"] == 0.0
        assert regions["shallow"]["screening"]["screening"] == 1.0
        assert regions["quad"]["imports"]["classification"] == "interior"
        assert regions["steep"]["imports"]["classification"] == "boundary-closed"
        assert regions["shallow"]["imports"]["classification"] == "boundary-open"

    def test_import_dist_table(self, tmp_path):
        code = run_cli("import-dist", "--config", str(fixture_path("import_dist_small")),
                       "--out", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "import_dist.csv")
        by_nu = {int(r["nu"]): r for r in rows}
        assert float(by_nu[1]["pmf"]) == pytest.approx(0.466667, abs=1e-6)
        assert float(by_nu[2]["tail_sum"]) == pytest.approx(0.533333, abs=1e-6)

    def test_import_dist_with_monte_carlo(self, tmp_path):
        code = run_cli("import-dist", "--config", str(fixture_path("import_dist_small")),
                       "--out", str(tmp_path), "--mc-trials", "20000")
        assert code == 0
        rows = read_csv(tmp_path / "import_dist.csv")
        for row in rows:
            assert abs(float(row["mc_freq"]) - float(row["pmf"])) < 0.02

    def test_import_dist_monte_carlo_needs_seed(self, tmp_path):
        cfg = json.loads(fixture_path("import_dist_small").read_text())
        del cfg["solver"]["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("import-dist", "--config", str(path),
                       "--out", str(tmp_path), "--mc-trials", "100")
        assert code == 1

    def test_game_virus_free_reports_zero_gap(self, tmp_path):
        code = run_cli("game", "--config", str(fixture_path("two_region_virus_free")),
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "game.json").read_text())
        assert report["gap"] == pytest.approx(0.0, abs=1e-9)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-9)
        assert report["converged"] is True
        assert set(report) >= {"nash", "cooperative", "gap", "converged", "iterations"}

    def test_game_symmetric_paradox(self, tmp_path):
        code = run_cli("game", "--config", str(fixture_path("two_region_symmetric")),
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "game.json").read_text())
        assert report["gap"] > 0
        for decision in report["nash"]["regions"].values():
            assert decision["imports"] > 0
        for decision in report["cooperative"]["regions"].values():
            assert decision["domestic_cases"] == 0.0
            assert decision["screening"] == 1.0

    def test_simulate_trajectory_columns(self, tmp_path):
        code = run_cli("simulate", "--config", str(fixture_path("one_region_quadratic")),
                       "--out", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "simulate.csv")
        assert list(rows[0]) == ["day", "cases", "cost_transmission", "cost_border",
                                 "cost_outbreak", "cost_total", "cumulative"]
        assert float(rows[0]["cases"]) == pytest.approx(100.0)
        assert float(rows[1]["cases"]) == pytest.approx(50.0)
        assert len(rows) == 30

    def test_compare_schedules_summary(self, tmp_path):
        code = run_cli("compare-schedules", "--config",
                       str(fixture_path("one_region_quadratic")),
                       "--out", str(tmp_path), "--format", "json")
        assert code == 0
        report = json.loads((tmp_path / "compare_schedules.json").read_text())
        assert report["summary"]["monotone_beats_relax_then_tighten"] is True
        assert report["summary"]["n_schedules"] == len(report["schedules"])

    def test_csv_reports_echo_config(self, tmp_path):
        run_cli("simulate", "--config", str(fixture_path("one_region_quadratic")),
                "--out", str(tmp_path))
        echo = csv_config_echo(tmp_path / "simulate.csv")
        original = json.loads(fixture_path("one_region_quadratic").read_text())
        assert echo == original

    def test_json_reports_echo_config(self, tmp_path):
        run_cli("game", "--config", str(fixture_path("two_region_virus_free")),
                "--out", str(tmp_path))
        report = json.loads((tmp_path / "game.json").read_text())
        original = json.loads(fixture_path("two_region_virus_free").read_text())
        assert report["config"] == original


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("validate", "--config", str(tmp_path / "nope.json")) == 1

    def test_unparseable_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli("validate", "--config", str(bad)) == 1

    def test_invalid_config_values(self, tmp_path):
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["regions"][0]["prevalence"] = 7.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli("optimize", "--config", str(bad), "--out", str(tmp_path)) == 1

    def test_unknown_command(self, tmp_path):
        assert run_cli("frobnicate", "--config", "x.json") == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["regions"][0]["domestic_cases"] = 1e9
        cfg["dynamics"]["reproduction"] = 2.5
        bad = tmp_path / "runaway.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path)) == 2

    @staticmethod
    def _overflowing_imports(tmp_path, travelers, population=None):
        # expected_imports(k, 0.1) overflows a float once k passes about 7,400
        cfg = json.loads(fixture_path("two_region_asymmetric").read_text())
        cfg["links"][0]["travelers"] = travelers
        if population is not None:
            cfg["regions"][0]["population"] = population
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("command", ["game", "optimize"])
    def test_import_overflow_is_numerical_failure(self, tmp_path, command, capsys):
        bad = self._overflowing_imports(tmp_path, 100_000)
        assert run_cli(command, "--config", bad, "--out", str(tmp_path)) == 2
        assert "numerical failure: expected imports overflow" in capsys.readouterr().err

    def test_game_needs_no_threat_off_the_configured_prevalence(self, tmp_path):
        # expected_imports(3000, L) overflows once L reaches about 0.27; the game
        # evaluates the threat only at the configured prevalence 0.1
        cfg = json.loads(fixture_path("two_region_symmetric").read_text())
        for region in cfg["regions"]:
            region.update(population=1000, domestic_cases=100)
        for link in cfg["links"]:
            link["travelers"] = 3000
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("game", "--config", str(path), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "game.json").read_text())
        assert report["cooperative"]["total"] == 2.0
        assert report["gap"] == 4.0

    def test_import_dist_needs_expected_imports_only_for_json(self, tmp_path):
        bad = self._overflowing_imports(tmp_path, 10_000, population=20_000)
        assert run_cli("import-dist", "--config", bad, "--out", str(tmp_path)) == 0
        assert run_cli("import-dist", "--config", bad, "--out", str(tmp_path),
                       "--format", "json") == 2

    def test_schedule_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # the fixture enumerates 12,201 schedules; lower the cap rather than
        # run an input over the real one
        import epicost.trajectory as trajectory_module

        monkeypatch.setattr(trajectory_module, "MAX_SCHEDULES", 12_000)
        code = run_cli("compare-schedules", "--config",
                       str(fixture_path("one_region_quadratic")), "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: 12,201 schedules" in err and "cap of 12,000" in err
        assert not (tmp_path / "compare_schedules.csv").exists()

    @pytest.mark.parametrize("cap", [183_329, 183_330])
    def test_schedule_days_cap_is_config_error(self, tmp_path, monkeypatch, capsys, cap):
        # 21 grid values over 30 days: 21 * 30 + 21 * 20 * 30 * 29 / 2 = 183,330
        # schedule-days; lower the cap rather than run an input over the real one
        import epicost.trajectory as trajectory_module

        monkeypatch.setattr(trajectory_module, "MAX_SCHEDULE_DAYS", cap)
        code = run_cli("compare-schedules", "--config",
                       str(fixture_path("one_region_quadratic")), "--out", str(tmp_path))
        assert code == (1 if cap < 183_330 else 0)
        assert (tmp_path / "compare_schedules.csv").exists() == (code == 0)
        if code:
            assert ("config error: 183,330 schedule-days to cost exceed the cap of "
                    "183,329" in capsys.readouterr().err)

    @staticmethod
    def _quadratic_with(tmp_path, **dynamics):
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["dynamics"].update(dynamics)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_compare_overflow_is_runaway_without_warnings(self, tmp_path, capsys):
        # grid {0.5, 2.0}: schedules that hold R = 2 long enough overflow
        # float range; they are flagged runaway and nothing reaches stderr
        path = self._quadratic_with(tmp_path, r_grid_step=1.5, horizon=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("compare-schedules", "--config", path,
                           "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "compare_schedules.csv")
        runaway = [row["runaway"] == "true" for row in rows]
        # log2 of each schedule's peak over the start level 100, against 1e12
        limit = math.log2(1e12 / 100.0)
        want = []
        for row in rows:
            s = int(row["switch_day"])
            up = math.log2(float(row["r_first"])) * s
            down = math.log2(float(row["r_second"])) * (2000 - s)
            want.append(max(0.0, up, up + down) > limit)
        assert runaway == want
        assert sum(runaway) == 2950

    def test_simulate_overflow_is_numerical_failure_without_warnings(self, tmp_path,
                                                                     capsys):
        path = self._quadratic_with(tmp_path, reproduction=2.5, horizon=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--config", path, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "numerical failure: runaway epidemic: cases exceeded 1e+12 within "
            "2000 days\n")

    def test_out_under_a_file_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "reports"
        assert run_cli("optimize", "--config", str(fixture_path("one_region_quadratic")),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {out}: Not a directory\n"

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("")
        assert run_cli("optimize", "--config", str(fixture_path("one_region_quadratic")),
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"config error: {out}: File exists\n"

    def test_directory_paths_are_config_errors(self, tmp_path, capsys):
        # a report path and a --config path that name directories
        (tmp_path / "optimize.json").mkdir()
        assert run_cli("optimize", "--config", str(fixture_path("one_region_quadratic")),
                       "--out", str(tmp_path)) == 1
        assert run_cli("optimize", "--config", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"config error: {tmp_path / 'optimize.json'}: Is a directory\n"
            f"config error: {tmp_path}: Is a directory\n")

    def test_invariant_violation_exit_code(self, tmp_path, monkeypatch):
        import epicost.cli as cli_module

        def explode(cfg, fmt, args):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setitem(cli_module._HANDLERS, "optimize", explode)
        code = run_cli("optimize", "--config",
                       str(fixture_path("one_region_quadratic")),
                       "--out", str(tmp_path))
        assert code == 3

    def test_grid_and_tol_overrides_validated(self, tmp_path):
        fix = str(fixture_path("one_region_quadratic"))
        assert run_cli("optimize", "--config", fix, "--out", str(tmp_path),
                       "--grid", "2") == 1
        assert run_cli("optimize", "--config", fix, "--out", str(tmp_path),
                       "--tol", "0") == 1

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        # the override meets the same bound as solver.seed in the file
        assert run_cli("import-dist", "--config", str(fixture_path("import_dist_small")),
                       "--out", str(tmp_path), "--mc-trials", "10", "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert "config error: solver.seed: must be >= 0" in err
        assert "Traceback" not in err

    def test_nan_tol_override_rejected(self, tmp_path):
        assert run_cli("optimize", "--config", str(fixture_path("one_region_quadratic")),
                       "--out", str(tmp_path), "--tol", "nan") == 1

    def test_negative_mc_trials_rejected(self, tmp_path):
        assert run_cli("import-dist", "--config", str(fixture_path("import_dist_small")),
                       "--out", str(tmp_path), "--mc-trials", "-5") == 1

    def test_mc_trials_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # lower the cap rather than sample over the real one
        import epicost.cli as cli_module

        monkeypatch.setattr(cli_module, "MAX_MC_TRIALS", 100)
        fix = str(fixture_path("import_dist_small"))
        assert run_cli("import-dist", "--config", fix, "--out", str(tmp_path),
                       "--mc-trials", "101", "--seed", "1") == 1
        assert ("config error: arguments: --mc-trials must be <= 100, got 101"
                in capsys.readouterr().err)
        assert not (tmp_path / "import_dist.csv").exists()
        assert run_cli("import-dist", "--config", fix, "--out", str(tmp_path),
                       "--mc-trials", "100", "--seed", "1") == 0

    def test_grid_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # the cap holds for solver.grid_points in the file and for --grid
        import epicost.config as config_module

        monkeypatch.setattr(config_module, "MAX_GRID_POINTS", 50)
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        path = tmp_path / "grid.json"
        for grid, extra, code in ((50, (), 0), (50, ("--grid", "51"), 1),
                                  (51, (), 1)):
            cfg["solver"]["grid_points"] = grid
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"{grid}{''.join(extra)}"
            assert run_cli("optimize", "--config", str(path), "--out", str(out),
                           *extra) == code
            assert (out / "optimize.json").exists() == (code == 0)
        err = capsys.readouterr().err
        assert err.count("config error: solver.grid_points: must be <= 50, got 51") == 2

    def test_horizon_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # lower the cap rather than run a horizon over the real one
        import epicost.config as config_module

        monkeypatch.setattr(config_module, "MAX_HORIZON", 40)
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        path = tmp_path / "horizon.json"
        for horizon, code in ((40, 0), (41, 1)):
            cfg["dynamics"]["horizon"] = horizon
            path.write_text(json.dumps(cfg))
            out = tmp_path / str(horizon)
            assert run_cli("simulate", "--config", str(path), "--out", str(out)) == code
            assert (out / "simulate.csv").exists() == (code == 0)
        assert ("config error: dynamics.horizon: must be <= 40, got 41"
                in capsys.readouterr().err)

    def test_zero_foc_tol_in_file_rejected(self, tmp_path):
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["solver"]["foc_tol"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli("optimize", "--config", str(bad), "--out", str(tmp_path)) == 1

    def test_overrides_reach_the_solver_not_the_echo(self, tmp_path):
        fix = fixture_path("one_region_quadratic")
        assert run_cli("optimize", "--config", str(fix), "--out", str(tmp_path),
                       "--grid", "7", "--tol", "0.5") == 0
        report = json.loads((tmp_path / "optimize.json").read_text())
        assert report["config"] == json.loads(fix.read_text())
        # seven grid points on [0, 4]: the interior optimum 0.25 is refined
        # from the bracket [0, 2/3], so a coarse grid still finds it
        assert report["regions"]["home"]["imports"]["argument"] == pytest.approx(0.25)


class TestFocTolerance:
    """``solver.foc_tol`` (``--tol``) classifies the screening decision too."""

    # dst's marginal at open borders is about -0.507: open at the default
    # tolerance, interior once the tolerance exceeds its size
    @pytest.mark.parametrize("tol, want", [(None, "boundary-open"), ("1.0", "interior")])
    def test_optimize_screening(self, tmp_path, tol, want):
        args = ["optimize", "--config", str(fixture_path("import_dist_small")),
                "--out", str(tmp_path), "--format", "csv"]
        assert run_cli(*args, *(["--tol", tol] if tol else [])) == 0
        rows = {(r["region"], r["variable"]): r for r in read_csv(tmp_path / "optimize.csv")}
        assert rows["dst", "screening"]["classification"] == want

    @pytest.mark.parametrize("tol, want", [(None, "boundary-open"), ("1.0", "interior")])
    def test_game_nash_screening(self, tmp_path, tol, want):
        args = ["game", "--config", str(fixture_path("import_dist_small")),
                "--out", str(tmp_path)]
        assert run_cli(*args, *(["--tol", tol] if tol else [])) == 0
        report = json.loads((tmp_path / "game.json").read_text())
        assert report["nash"]["regions"]["dst"]["classification"] == want


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("import-dist", "--config",
                           str(fixture_path("import_dist_small")),
                           "--out", str(out), "--seed", "42",
                           "--mc-trials", "5000") == 0
            assert run_cli("game", "--config",
                           str(fixture_path("two_region_symmetric")),
                           "--out", str(out), "--seed", "42") == 0
        assert ((out1 / "import_dist.csv").read_bytes()
                == (out2 / "import_dist.csv").read_bytes())
        assert (out1 / "game.json").read_bytes() == (out2 / "game.json").read_bytes()
