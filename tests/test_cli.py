import csv
import json
import math
import warnings

import pytest

from epicost.cli import COMMANDS, _cell, main
from epicost.config import load_config
from epicost.errors import InvariantViolation
from epicost.fixtures import fixture_path
from epicost.importation import ImportScenario, import_tail_sum


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

    def test_import_dist_tail_sums_are_import_tail_sum(self, tmp_path):
        # the report's tail_sum cells are the library's tail sums, byte for byte
        path = fixture_path("import_dist_small")
        assert run_cli("import-dist", "--config", str(path), "--out", str(tmp_path)) == 0
        cfg = load_config(path)
        scenarios = {}
        for link in cfg.links:
            origin = cfg.region(link.origin)
            scenarios[link.origin, link.destination] = ImportScenario.from_prevalence(
                origin.population, origin.prevalence, link.travelers)
        rows = read_csv(tmp_path / "import_dist.csv")
        assert len(rows) == sum(hi - lo + 1 for lo, hi in
                                (s.support for s in scenarios.values()))
        for row in rows:
            scenario = scenarios[row["origin"], row["destination"]]
            assert row["tail_sum"] == _cell(import_tail_sum(scenario, int(row["nu"])))

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
        # evaluates the threat only at the configured prevalence 0.1 (the
        # population holds the 3,000 travellers each link draws from it)
        cfg = json.loads(fixture_path("two_region_symmetric").read_text())
        for region in cfg["regions"]:
            region.update(population=3000, domestic_cases=100)
        for link in cfg["links"]:
            link["travelers"] = 3000
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("game", "--config", str(path), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "game.json").read_text())
        assert report["cooperative"]["total"] == 2.0
        assert report["gap"] == 4.0

    def test_import_dist_needs_expected_imports_only_for_json(self, tmp_path):
        # the JSON report alone carries the limit form, which overflows: it
        # is written "inf", and the exit code does not depend on the format
        bad = self._overflowing_imports(tmp_path, 10_000, population=20_000)
        assert run_cli("import-dist", "--config", bad, "--out", str(tmp_path)) == 0
        assert run_cli("import-dist", "--config", bad, "--out", str(tmp_path),
                       "--format", "json") == 0
        link = json.loads((tmp_path / "import_dist.json").read_text())["links"][0]
        assert link["expected_imports"] == "inf"
        with open(tmp_path / "import_dist.csv") as fh:
            rows = [row for row in csv.DictReader(line for line in fh if line[0] != "#")
                    if (row["origin"], row["destination"])
                    == (link["origin"], link["destination"])]
        assert len(rows) == len(link["rows"]) == 2_001   # 2,000 infected
        assert all(float(row["pmf"]) == got["pmf"] and float(row["tail_sum"]) == got["tail_sum"]
                   for row, got in zip(rows, link["rows"]))

    def test_schedule_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # the fixture enumerates 12,201 schedules; lower the cap rather than
        # run an input over the real one
        import epicost.trajectory as trajectory_module

        monkeypatch.setattr(trajectory_module, "MAX_SCHEDULES", 12_000)
        for fmt in ("csv", "json"):
            code = run_cli("compare-schedules", "--config",
                           str(fixture_path("one_region_quadratic")), "--out", str(tmp_path),
                           "--format", fmt)
            assert code == 1
            err = capsys.readouterr().err
            assert "config error: 12,201 schedules" in err and "cap of 12,000" in err
            assert not (tmp_path / f"compare_schedules.{fmt}").exists()

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

    @pytest.mark.parametrize("dynamics", [
        {"r_grid_step": 1e-300}, {"r0": 1e20}, {"r0": 1e300, "r_grid_step": 1e-300}])
    def test_grid_past_int64_is_config_error(self, tmp_path, capsys, dynamics):
        # each grid counts more values than int64 holds (the last one
        # overflows to inf): numpy made an object array of the count and
        # raised TypeError before the schedule cap was checked
        path = self._quadratic_with(tmp_path, **dynamics)
        assert run_cli("compare-schedules", "--config", path, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: an R grid of ") and err.count("\n") == 1
        assert "more schedules than the cap of 1,000,000" in err

    def test_grid_of_huge_r_values_keeps_every_value(self, tmp_path, capsys):
        # rounding to 12 decimals scales by 1e12, which overflowed these R
        # values to inf: the grid read [0.5, inf x 9], dropping r0, with an
        # overflow warning on stderr
        path = self._quadratic_with(tmp_path, r0=1e300, r_grid_step=1e299)
        code = run_cli("compare-schedules", "--config", path, "--out", str(tmp_path))
        assert code in (0, 1, 2, 3)
        err = capsys.readouterr().err
        assert err == "" or err.count("\n") == 1
        assert code == 0
        rows = read_csv(tmp_path / "compare_schedules.csv")
        constants = [row["r_first"] for row in rows if row["switch_day"] == "30"]
        assert constants == ["0.5"] + [f"{k}e+299" for k in range(1, 10)] + ["1e+300"]

    @pytest.mark.parametrize("dynamics, values, distinct", [
        ({"r_min": 1e16, "r0": 1e16 + 8, "r_grid_step": 1.0, "horizon": 3,
          "reproduction": 1e16}, 9, 5),
        ({"r0": 0.5 + 1e-9, "r_grid_step": 1e-13, "horizon": 1}, "10,001", "1,001")])
    def test_grid_of_coinciding_values_is_config_error(self, tmp_path, capsys, dynamics,
                                                       values, distinct):
        # 1e16 + 1 rounds to 1e16, and 0.5 + 1e-13 to 12 decimals to 0.5:
        # the scan counted the 133 schedules of 5 values where the caps
        # counted the 153 of 9 (schedule_count)
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["regions"][0]["domestic_cases"] = 0.0
        cfg["dynamics"].update(target_cases=0.0, **dynamics)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        for fmt in ("csv", "json"):
            assert run_cli("compare-schedules", "--config", str(path), "--out",
                           str(tmp_path / "out"), "--format", fmt) == 1
            assert capsys.readouterr().err.startswith(
                f"config error: an R grid of {values} values holds only {distinct} "
                "distinct ones")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_travelers_past_origin_population_is_config_error(self, tmp_path, capsys,
                                                              command):
        # travellers are drawn from the origin's population: only import-dist
        # refused more, through its scenario, and the others looped over them
        cfg = json.loads(fixture_path("two_region_symmetric").read_text())
        cfg["links"][1]["travelers"] = 1_000_001
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "config error: links[1].travelers: must be <= the population of 'B' "
            "(1000000), got 1000001\n")

    @pytest.mark.parametrize("command", ["optimize", "simulate", "game"])
    def test_import_overflow_at_huge_travelers_is_immediate(self, tmp_path, capsys,
                                                            command):
        # 2**63 travellers looped for minutes before expected_imports had a
        # closed form
        cfg = json.loads(fixture_path("two_region_asymmetric").read_text())
        for region in cfg["regions"]:
            region.update(population=2**63, prevalence=0.1)
        for link in cfg["links"]:
            link["travelers"] = 2**63
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path)) == 2
        assert "numerical failure: expected imports overflow" in capsys.readouterr().err

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

    @pytest.mark.parametrize("outbreak, step, horizon, overflowed", [
        (True, 1.0, 1000, 3153), (False, 1.5, 2000, 2241)])
    def test_compare_overflowed_totals_read_inf(self, tmp_path, outbreak, step, horizon,
                                                overflowed):
        # cases overflow to inf; 0 * inf (the weight of R = r0, or an absent
        # outbreak term) made these totals nan, where other overflowed rows read inf
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        if not outbreak:
            del cfg["regions"][0]["curves"]["outbreak"]
        cfg["dynamics"].update(r_grid_step=step, horizon=horizon)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("compare-schedules", "--config", str(path),
                       "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "compare_schedules.csv")
        assert not any("nan" in row.values() for row in rows)
        inf_rows = [row for row in rows if row["total_cost"] == "inf"]
        assert len(inf_rows) == overflowed
        assert all(row["runaway"] == "true" for row in inf_rows)

    def test_simulate_overflow_is_numerical_failure_without_warnings(self, tmp_path,
                                                                     capsys):
        path = self._quadratic_with(tmp_path, reproduction=2.5, horizon=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--config", path, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "numerical failure: runaway epidemic: cases exceeded 1e+12 within "
            "2000 days\n")

    @pytest.mark.parametrize("command", ["optimize", "simulate"])
    def test_region_with_two_inbound_links_is_config_error(self, tmp_path, command,
                                                           capsys):
        # screening is solved against one link; quad would see only hub's
        cfg = json.loads(fixture_path("boundary_trio").read_text())
        cfg["links"][1].update(origin="steep", destination="quad")
        path = tmp_path / "two_into_quad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "config error: region 'quad' has 2 inbound links; "
            "a region's screening takes at most one\n")
        assert list(tmp_path.iterdir()) == [path]
        assert run_cli("import-dist", "--config", str(path), "--out", str(tmp_path)) == 0

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

    @pytest.mark.parametrize("block, key, value, diagnostic", [
        ("outbreak", "exponent", 1e300, "regions[0].curves.outbreak: shape invariant "
         "outbreak.finite violated (sampled cost overflows float range from 1.001 "
         "on [0, 4])"),
        ("border", "i_free", 1e300, "regions[0].curves.transmission: shape invariant "
         "transmission.finite violated (sampled cost overflows float range from "
         "1.001e+297 on [0, 1e+300])"),
        # 0.5 * 4 ** 512 is past float range at the last sample only: the
        # command used to run, with a numpy overflow warning
        ("outbreak", "exponent", 512, "regions[0].curves.outbreak: shape invariant "
         "outbreak.finite violated (sampled cost overflows float range from 4 "
         "on [0, 4])")],
        ids=["outbreak.exponent", "border.i_free", "last-sample-only"])
    def test_shape_gate_overflow_is_named_without_warnings(self, tmp_path, capsys, block,
                                                            key, value, diagnostic):
        # sampled costs past float range: inf - inf used to make the
        # monotonicity checks fail on nan, with numpy warnings on stderr
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["regions"][0]["curves"][block][key] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("optimize", "--config", str(path),
                           "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"config error: {diagnostic}\n"

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

    def test_support_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # the fixture's support is 0 .. 2: lower the cap around it
        import epicost.importation as importation_module

        fix = str(fixture_path("import_dist_small"))
        for cap, code in ((3, 0), (2, 1)):
            monkeypatch.setattr(importation_module, "MAX_SUPPORT", cap)
            out = tmp_path / str(cap)
            assert run_cli("import-dist", "--config", fix, "--out", str(out)) == code
            assert (out / "import_dist.csv").exists() == (code == 0)
        assert capsys.readouterr().err == (
            "config error: a support of 3 import counts (3 travelers from 10 people, "
            "2 infected) exceeds the cap of 2\n")

    def test_huge_support_is_refused_before_allocation(self, tmp_path, capsys):
        # a support of 1e20 values stopped with numpy's "Maximum allowed
        # dimension exceeded" traceback; game and optimize read only the
        # closed-form threat, which overflows
        cfg = json.loads(fixture_path("import_dist_small").read_text())
        for region in cfg["regions"]:
            region["population"] = 10**21
        cfg["links"][0]["travelers"] = 10**20
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        for fmt in ("csv", "json"):
            assert run_cli("import-dist", "--config", str(path), "--out", str(tmp_path),
                           "--format", fmt) == 1
            assert capsys.readouterr().err == (
                "config error: a support of 100,000,000,000,000,000,001 import counts "
                "(100,000,000,000,000,000,000 travelers from "
                "1,000,000,000,000,000,000,000 people, 200,000,000,000,000,000,000 "
                "infected) exceeds the cap of 10,000,000\n")
            assert not (tmp_path / f"import_dist.{fmt}").exists()
        for command in ("game", "optimize"):
            assert run_cli(command, "--config", str(path), "--out", str(tmp_path)) == 2
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: expected imports overflow")
            assert err.count("\n") == 1

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


class TestSolverOverrides:
    """``--seed``, ``--grid`` and ``--tol`` are read in the one parse of the file."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("extra, solver", [
        ((), {}),
        (("--seed", "7", "--grid", "101", "--tol", "1e-6"),
         {"seed": 7, "grid_points": 101, "foc_tol": 1e-6})])
    def test_config_parsed_once(self, tmp_path, monkeypatch, command, extra, solver):
        import epicost.config as config_module

        calls = []
        parse = config_module.parse_config

        def counting(*args, **kwargs):
            calls.append(kwargs["solver"])
            return parse(*args, **kwargs)

        monkeypatch.setattr(config_module, "parse_config", counting)
        assert run_cli(command, "--config", str(fixture_path("two_region_symmetric")),
                       "--out", str(tmp_path), *extra) == 0
        assert calls == [solver]

    def test_override_replaces_an_invalid_file_value(self, tmp_path, capsys):
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["solver"]["grid_points"] = 2
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("optimize", "--config", str(path), "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "config error: solver.grid_points: must be >= 3, got 2\n")
        assert run_cli("optimize", "--config", str(path), "--out", str(tmp_path),
                       "--grid", "101") == 0
        assert json.loads((tmp_path / "optimize.json").read_text())["config"] == cfg

    def test_file_and_override_diagnostics_in_one_list(self, tmp_path, capsys):
        cfg = json.loads(fixture_path("one_region_quadratic").read_text())
        cfg["dynamics"]["horizon"] = 0
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("optimize", "--config", str(path), "--out", str(tmp_path),
                       "--grid", "2", "--tol", "0") == 1
        assert capsys.readouterr().err == (
            "config error: dynamics.horizon: must be >= 1, got 0\n"
            "config error: solver.foc_tol: must be > 0, got 0.0\n"
            "config error: solver.grid_points: must be >= 3, got 2\n")


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
