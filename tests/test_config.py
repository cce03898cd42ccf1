import json
import math

import pytest

from epicost.config import (DynamicsSettings, SolverSettings, _Reader, load_config,
                            parse_config)
from epicost.errors import ConfigError
from epicost.fixtures import SCENARIOS, fixture_path
from epicost.trajectory import DynamicsParams


def minimal_config(**overrides):
    cfg = {
        "regions": [
            {
                "id": "A",
                "population": 1000,
                "prevalence": 0.1,
                "domestic_cases": 5.0,
                "curves": {
                    "import_multiplier": 1.0,
                    "transmission": {"c0": 1.0, "tti_slope": 0.5},
                    "border": {"b0": 2.0, "i_free": 4.0, "curvature": 1.0},
                    "outbreak": {"per_case": 0.5, "exponent": 1.0},
                },
            }
        ],
        "links": [],
        "solver": {"seed": 42},
        "dynamics": {"horizon": 5},
    }
    cfg.update(overrides)
    return cfg


def diagnostics_of(cfg):
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    return err.value.diagnostics


class TestFixtures:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_bundled_fixture_loads(self, name):
        cfg = load_config(fixture_path(name))
        assert cfg.regions
        assert cfg.solver.seed == 42

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_round_trip(self, name):
        cfg = load_config(fixture_path(name))
        assert parse_config(cfg.raw) == cfg


class TestValidation:
    def test_minimal_config_parses(self):
        cfg = parse_config(minimal_config())
        assert cfg.regions[0].name == "A"
        assert cfg.regions[0].curves.border.b0 == 2.0
        assert cfg.dynamics.horizon == 5

    def test_zero_closure_cost_names_field(self):
        cfg = minimal_config()
        cfg["regions"][0]["curves"]["border"]["b0"] = 0.0
        diags = diagnostics_of(cfg)
        assert any("curves.border.b0" in d for d in diags)

    def test_overscreened_link_rejected(self):
        cfg = minimal_config()
        cfg["regions"].append(json.loads(json.dumps(cfg["regions"][0])))
        cfg["regions"][1]["id"] = "B"
        cfg["links"] = [{"origin": "A", "destination": "B",
                         "travelers": 5, "screening": 1.2}]
        diags = diagnostics_of(cfg)
        assert any("links[0].screening" in d for d in diags)

    def test_unknown_link_region(self):
        cfg = minimal_config()
        cfg["links"] = [{"origin": "A", "destination": "Z", "travelers": 5}]
        diags = diagnostics_of(cfg)
        assert any("links[0].destination" in d for d in diags)

    def test_duplicate_region_ids(self):
        cfg = minimal_config()
        cfg["regions"].append(json.loads(json.dumps(cfg["regions"][0])))
        assert any("unique" in d for d in diagnostics_of(cfg))

    def test_missing_required_field_has_path(self):
        cfg = minimal_config()
        del cfg["regions"][0]["population"]
        diags = diagnostics_of(cfg)
        assert any(d.startswith("regions[0].population") for d in diags)

    def test_multiple_violations_all_reported(self):
        cfg = minimal_config()
        cfg["regions"][0]["prevalence"] = 2.0
        cfg["regions"][0]["curves"]["border"]["b0"] = -1.0
        cfg["dynamics"]["horizon"] = 0
        diags = diagnostics_of(cfg)
        assert len(diags) >= 3

    def test_infinite_capacity_spellings(self):
        cfg = minimal_config()
        cfg["regions"][0]["curves"]["transmission"]["tti_capacity"] = "inf"
        parsed = parse_config(cfg)
        assert math.isinf(parsed.regions[0].curves.transmission.tti_capacity)
        del cfg["regions"][0]["curves"]["transmission"]["tti_capacity"]
        parsed = parse_config(cfg)
        assert math.isinf(parsed.regions[0].curves.transmission.tti_capacity)

    def test_schedule_length_mismatch(self):
        cfg = minimal_config()
        cfg["dynamics"]["reproduction"] = [0.5, 0.6]
        diags = diagnostics_of(cfg)
        assert any("dynamics.reproduction" in d for d in diags)

    def test_day_series_not_held_to_an_invalid_horizon(self):
        # an invalid horizon is reported alone, not as a series' mismatch
        # with the default 30 days
        cfg = minimal_config(dynamics={"horizon": 0, "reproduction": [0.5] * 5})
        assert diagnostics_of(cfg) == ["dynamics.horizon: must be >= 1, got 0"]
        # a missing horizon is 30 days
        cfg = minimal_config(dynamics={"reproduction": [0.5] * 5})
        assert diagnostics_of(cfg) == [
            "dynamics.reproduction: length 5 does not match horizon 30"]

    @pytest.mark.parametrize("key, series", [
        ("reproduction", [True, 0.5, 0.5, 0.5, 0.5]), ("screening", [False] * 5)])
    def test_bools_in_day_series_rejected(self, key, series):
        # a bool is not read as the number 1.0 or 0.0, in a list as on its own
        cfg = minimal_config(dynamics={"horizon": 5, key: series})
        assert diagnostics_of(cfg) == [
            f"dynamics.{key}: expected a number or list, got {series!r}"]

    def test_schedule_bounds_checked(self):
        cfg = minimal_config()
        cfg["dynamics"]["reproduction"] = 5.0
        assert diagnostics_of(cfg)

    def test_unknown_dynamics_region(self):
        cfg = minimal_config()
        cfg["dynamics"]["region"] = "nope"
        diags = diagnostics_of(cfg)
        assert any("dynamics.region" in d for d in diags)

    @pytest.mark.parametrize("dynamics, diagnostic", [
        ({"region": "nowhere"}, "dynamics.region: unknown region 'nowhere'"),
        ({"reproduction": 9.0}, "dynamics: reproduction[0]=9.0 outside [0.5, 2.5]")])
    def test_dynamics_checked_beside_other_violations(self, dynamics, diagnostic):
        cfg = minimal_config(solver={"grid_points": 1}, dynamics={"horizon": 5, **dynamics})
        assert diagnostics_of(cfg) == [diagnostic, "solver.grid_points: must be >= 3, got 1"]

    def test_region_of_a_failed_block_is_not_unknown(self):
        # the names are not all known when a region block fails
        cfg = minimal_config(dynamics={"horizon": 5, "region": "B"},
                             links=[{"origin": "A", "destination": "B", "travelers": 3}])
        cfg["regions"].append({**cfg["regions"][0], "id": "B", "prevalence": 2.0})
        assert diagnostics_of(cfg) == ["regions[1].prevalence: must be <= 1.0, got 2"]

    def test_shape_gate_can_be_disabled(self):
        cfg = minimal_config()
        cfg["regions"][0]["curves"]["border"]["b0"] = 0.0
        parsed = parse_config(cfg, shape_gate=False)
        assert parsed.regions[0].curves.border.b0 == 0.0

    def test_empty_blocks_take_the_dataclass_defaults(self):
        cfg = parse_config(minimal_config(solver={}, dynamics={}))
        assert cfg.solver == SolverSettings()
        assert cfg.dynamics == DynamicsSettings(DynamicsParams())

    def test_retired_game_keys_are_ignored(self):
        # no solver reads them; the bundled fixtures still set them
        retired = {"damping": 7.0, "coop_grid_points": 1, "infectious_days": -1.0}
        cfg = parse_config(minimal_config(solver=retired))
        assert cfg.solver == SolverSettings()

    @pytest.mark.parametrize("block", ["solver", "dynamics"])
    def test_non_object_block_is_a_diagnostic(self, block):
        assert f"{block}: expected an object, got list" in diagnostics_of(
            minimal_config(**{block: [1]}))

    @pytest.mark.parametrize("links", [3, True, "ab", {"a": 1}])
    def test_links_not_a_list_is_one_diagnostic(self, links):
        # a number or bool raised TypeError; a string or object gave one
        # diagnostic per character or key
        assert diagnostics_of(minimal_config(links=links)) == [
            "links: expected a list of link blocks"]

    def test_null_links_mean_no_links(self):
        assert parse_config(minimal_config(links=None)).links == ()

    @pytest.mark.parametrize("key", ["foc_tol", "nash_tol"])
    def test_tolerances_must_be_positive(self, key):
        assert f"solver.{key}: must be > 0, got 0.0" in diagnostics_of(
            minimal_config(solver={key: 0}))

    @pytest.mark.parametrize("block, key, value", [
        ("solver", "nash_tol", math.nan), ("solver", "foc_tol", math.inf),
        ("dynamics", "r0", math.nan), ("dynamics", "r_grid_step", math.inf)])
    def test_non_finite_numbers_rejected(self, block, key, value):
        # json.loads reads NaN and Infinity; no bound would catch them
        cfg = json.loads(json.dumps(minimal_config(**{block: {key: value}})))
        assert f"{block}.{key}: must be finite, got {value}" in diagnostics_of(cfg)

    def test_model_bounds_reported_at_their_fields(self):
        cfg = minimal_config(dynamics={"horizon": 5, "stringency_exponent": 0})
        cfg["regions"][0]["curves"]["border"]["i_free"] = 0
        assert diagnostics_of(cfg) == [
            "dynamics.stringency_exponent: must be > 0, got 0.0",
            "regions[0].curves.border.i_free: must be > 0, got 0.0"]

    def test_solver_values_laid_over_the_file_block(self):
        data = minimal_config(solver={"seed": 42, "grid_points": 2})
        cfg = parse_config(data, solver={"grid_points": 101})
        assert (cfg.solver.seed, cfg.solver.grid_points) == (42, 101)
        assert cfg.raw is data and data["solver"] == {"seed": 42, "grid_points": 2}
        with pytest.raises(ConfigError) as err:
            parse_config(data, solver={"seed": -1})
        assert err.value.diagnostics == ["solver.grid_points: must be >= 3, got 2",
                                         "solver.seed: must be >= 0, got -1"]

    @pytest.mark.parametrize("kind, value, message", [
        ("object", [1], "expected an object, got list"),
        ("number", "x", "expected a number, got 'x'"),
        ("integer", 1.5, "expected an integer, got 1.5"),
        ("string", True, "expected a string, got True"),
        ("number", True, "expected a number, got True")])
    def test_reader_names_the_expected_kind(self, kind, value, message):
        r = _Reader()
        assert r.read({"k": value}, "k", "p.", kind, default="d") == "d"
        assert r.diagnostics == [f"p.k: {message}"]

    def test_infinite_capacity_literal_allowed(self):
        cfg = minimal_config()
        cfg["regions"][0]["curves"]["transmission"]["tti_capacity"] = math.inf
        parsed = parse_config(json.loads(json.dumps(cfg)))
        assert math.isinf(parsed.regions[0].curves.transmission.tti_capacity)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)
