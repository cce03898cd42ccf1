"""Scenario configuration: JSON schema, validation, and typed settings.

A scenario file is a single JSON object with four blocks: ``regions`` (each
carrying its ``curves``), ``links``, ``solver`` and ``dynamics``. All
numbers are decimal; a transmission curve's ``tti_capacity`` may be null or
"inf" for a curve whose per-case regime never breaks down. Validation
collects every violation with its field path before failing.
"""

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .costs import (BorderCost, CostCurveSet, OutbreakCost, TransmissionCost,
                    validate_curve_set)
from .errors import ConfigError, DomainError
from .game import MAX_ITERATIONS, NASH_TOL, RegionLookup, RegionState, TravelLink
from .optimize import FOC_TOL, GRID_POINTS
from .trajectory import DynamicsParams, PolicySchedule

# largest accepted solver.grid_points (and --grid): the optimizers peak near
# 49 bytes per grid point, so a run stays under about 0.5 GB
MAX_GRID_POINTS = 10_000_000
# largest accepted dynamics.horizon: simulate costs about 1 us a day and a
# one-value-grid compare-schedules about 6 us a day, so neither passes 1 s
MAX_HORIZON = 100_000


@dataclass(frozen=True)
class SolverSettings:
    grid_points: int = GRID_POINTS
    foc_tol: float = FOC_TOL
    max_iterations: int = MAX_ITERATIONS
    nash_tol: float = NASH_TOL
    seed: int | None = None


@dataclass(frozen=True)
class DynamicsSettings:
    params: DynamicsParams
    horizon: int = 30
    region: str | None = None
    reproduction: tuple[float, ...] | float = 0.5
    screening: tuple[float, ...] | float = 1.0
    target_cases: float = 1.0
    r_grid_step: float = 0.1

    def schedule(self) -> PolicySchedule:
        rep = self.reproduction
        scr = self.screening
        rep = (rep,) * self.horizon if isinstance(rep, float) else rep
        scr = (scr,) * self.horizon if isinstance(scr, float) else scr
        return PolicySchedule(rep, scr, self.params)


@dataclass(frozen=True)
class ScenarioConfig(RegionLookup):
    regions: tuple[RegionState, ...]
    links: tuple[TravelLink, ...]
    solver: SolverSettings
    dynamics: DynamicsSettings
    raw: dict = field(compare=True, repr=False)

    def dynamics_region(self) -> RegionState:
        if self.dynamics.region is not None:
            return self.region(self.dynamics.region)
        return self.regions[0]


class _Reader:
    """Pulls typed values out of nested dicts, collecting path-tagged diagnostics."""

    def __init__(self):
        self.diagnostics: list[str] = []

    def fail(self, path: str, msg: str):
        self.diagnostics.append(f"{path}: {msg}")

    def obj(self, data, key, path, required=True):
        v = data.get(key)
        if v is None:
            if required:
                self.fail(f"{path}{key}", "missing required object")
            return None
        if not isinstance(v, dict):
            self.fail(f"{path}{key}", f"expected an object, got {type(v).__name__}")
            return None
        return v

    def num(self, data, key, path, default=None, required=False,
            minimum=None, maximum=None, allow_inf=False, positive=False):
        v = data.get(key)
        if v is None:
            if required:
                self.fail(f"{path}{key}", "missing required number")
            return default
        if allow_inf and v == "inf":
            v = math.inf
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"{path}{key}", f"expected a number, got {v!r}")
            return default
        v = float(v)
        # json.loads takes NaN and Infinity, which every bound below lets pass
        if math.isnan(v) or (math.isinf(v) and not allow_inf):
            self.fail(f"{path}{key}", f"must be finite, got {v}")
            return default
        if minimum is not None and v < minimum:
            self.fail(f"{path}{key}", f"must be >= {minimum}, got {v:g}")
            return default
        if maximum is not None and v > maximum:
            self.fail(f"{path}{key}", f"must be <= {maximum}, got {v:g}")
            return default
        if positive and v <= 0:
            self.fail(f"{path}{key}", f"must be > 0, got {v}")
            return default
        return v

    def integer(self, data, key, path, default=None, required=False, minimum=None,
                maximum=None):
        v = data.get(key)
        if v is None:
            if required:
                self.fail(f"{path}{key}", "missing required integer")
            return default
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(f"{path}{key}", f"expected an integer, got {v!r}")
            return default
        if minimum is not None and v < minimum:
            self.fail(f"{path}{key}", f"must be >= {minimum}, got {v}")
            return default
        if maximum is not None and v > maximum:
            self.fail(f"{path}{key}", f"must be <= {maximum}, got {v}")
            return default
        return v

    def text(self, data, key, path, default=None, required=False):
        v = data.get(key)
        if v is None:
            if required:
                self.fail(f"{path}{key}", "missing required string")
            return default
        if not isinstance(v, str):
            self.fail(f"{path}{key}", f"expected a string, got {v!r}")
            return default
        return v


def _defaults(cls) -> dict:
    """Field defaults of a settings dataclass, where they are stated once."""
    return {f.name: f.default for f in fields(cls)}


def _parse_curves(r: _Reader, block: dict, path: str) -> CostCurveSet | None:
    ct_b = r.obj(block, "transmission", path)
    cb_b = r.obj(block, "border", path)
    co_b = r.obj(block, "outbreak", path, required=False) or {}
    alpha = r.num(block, "import_multiplier", path, default=1.0, minimum=1.0)
    if ct_b is None or cb_b is None or alpha is None:
        return None
    before = len(r.diagnostics)
    ct_path = f"{path}transmission."
    c0 = r.num(ct_b, "c0", ct_path, required=True, minimum=0.0)
    tti_slope = r.num(ct_b, "tti_slope", ct_path, default=0.0, minimum=0.0)
    tti_capacity = r.num(ct_b, "tti_capacity", ct_path, default=math.inf,
                         minimum=0.0, allow_inf=True)
    jump = r.num(ct_b, "breakdown_jump", ct_path, default=0.0, minimum=0.0)
    wide_slope = r.num(ct_b, "wide_slope", ct_path, default=0.0, minimum=0.0)
    wide_exponent = r.num(ct_b, "wide_exponent", ct_path, default=1.0, minimum=1.0)
    cb_path = f"{path}border."
    b0 = r.num(cb_b, "b0", cb_path, required=True, minimum=0.0)
    i_free = r.num(cb_b, "i_free", cb_path, required=True)
    curvature = r.num(cb_b, "curvature", cb_path, default=1.0, minimum=1.0)
    co_path = f"{path}outbreak."
    per_case = r.num(co_b, "per_case", co_path, default=0.0, minimum=0.0)
    exponent = r.num(co_b, "exponent", co_path, default=1.0, minimum=1.0)
    if len(r.diagnostics) > before:
        return None
    try:
        return CostCurveSet(
            TransmissionCost(c0, tti_slope, tti_capacity, jump, wide_slope, wide_exponent),
            BorderCost(b0, i_free, curvature),
            OutbreakCost(per_case, exponent),
            alpha)
    except DomainError as exc:
        r.fail(path.rstrip("."), str(exc))
        return None


def parse_config(data: dict, shape_gate: bool = True) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON object.

    With ``shape_gate`` every region's curves must pass validate_curve_set;
    the ``validate`` command disables the gate to report failures instead.
    """
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    r = _Reader()

    regions: list[RegionState] = []
    region_blocks = data.get("regions")
    if not isinstance(region_blocks, list) or not region_blocks:
        r.fail("regions", "expected a non-empty list of region blocks")
        region_blocks = []
    for i, block in enumerate(region_blocks):
        path = f"regions[{i}]."
        if not isinstance(block, dict):
            r.fail(f"regions[{i}]", "expected an object")
            continue
        name = r.text(block, "id", path, required=True)
        population = r.integer(block, "population", path, required=True, minimum=1)
        prevalence = r.num(block, "prevalence", path, required=True,
                           minimum=0.0, maximum=1.0)
        domestic = r.num(block, "domestic_cases", path, default=0.0, minimum=0.0)
        curves_block = r.obj(block, "curves", path)
        curves = None
        if curves_block is not None:
            curves = _parse_curves(r, curves_block, f"{path}curves.")
        if None in (name, population, prevalence, domestic, curves):
            continue
        if shape_gate:
            report = validate_curve_set(curves)
            for check in report.failures():
                where = check.field_path or check.name
                r.fail(f"{path}curves.{where}",
                       f"shape invariant {check.name} violated ({check.detail})")
        try:
            regions.append(RegionState(name, population, prevalence, domestic, curves))
        except DomainError as exc:
            r.fail(f"regions[{i}]", str(exc))

    names = [reg.name for reg in regions]
    if len(set(names)) != len(names):
        r.fail("regions", "region ids must be unique")

    links: list[TravelLink] = []
    seen_directions = set()
    for i, block in enumerate(data.get("links", []) or []):
        path = f"links[{i}]."
        if not isinstance(block, dict):
            r.fail(f"links[{i}]", "expected an object")
            continue
        origin = r.text(block, "origin", path, required=True)
        destination = r.text(block, "destination", path, required=True)
        travelers = r.integer(block, "travelers", path, required=True, minimum=0)
        screening = r.num(block, "screening", path, default=1.0,
                          minimum=0.0, maximum=1.0)
        if None in (origin, destination, travelers, screening):
            continue
        for endpoint, label in ((origin, "origin"), (destination, "destination")):
            if names and endpoint not in names:
                r.fail(f"{path}{label}", f"unknown region {endpoint!r}")
        if (origin, destination) in seen_directions:
            r.fail(f"links[{i}]", f"duplicate link {origin} -> {destination}")
        seen_directions.add((origin, destination))
        try:
            links.append(TravelLink(origin, destination, travelers, screening))
        except DomainError as exc:
            r.fail(f"links[{i}]", str(exc))

    sb = r.obj(data, "solver", "", required=False) or {}
    sd = _defaults(SolverSettings)
    solver = SolverSettings(
        grid_points=r.integer(sb, "grid_points", "solver.", default=sd["grid_points"],
                              minimum=3, maximum=MAX_GRID_POINTS),
        foc_tol=r.num(sb, "foc_tol", "solver.", default=sd["foc_tol"], positive=True),
        max_iterations=r.integer(sb, "max_iterations", "solver.",
                                 default=sd["max_iterations"], minimum=1),
        nash_tol=r.num(sb, "nash_tol", "solver.", default=sd["nash_tol"], positive=True),
        seed=r.integer(sb, "seed", "solver.", default=sd["seed"], minimum=0),
    )

    db = r.obj(data, "dynamics", "", required=False) or {}
    pd, dd = _defaults(DynamicsParams), _defaults(DynamicsSettings)
    r0 = r.num(db, "r0", "dynamics.", default=pd["r0"])
    r_min = r.num(db, "r_min", "dynamics.", default=pd["r_min"], minimum=0.0)
    g_exp = r.num(db, "stringency_exponent", "dynamics.",
                  default=pd["stringency_exponent"])
    horizon = r.integer(db, "horizon", "dynamics.", default=dd["horizon"], minimum=1,
                        maximum=MAX_HORIZON)
    region_name = r.text(db, "region", "dynamics.", default=dd["region"])
    target = r.num(db, "target_cases", "dynamics.", default=dd["target_cases"],
                   minimum=0.0)
    r_step = r.num(db, "r_grid_step", "dynamics.", default=dd["r_grid_step"],
                   positive=True)

    def day_series(key, default):
        v = db.get(key, default)
        if isinstance(v, bool):
            r.fail(f"dynamics.{key}", f"expected a number or list, got {v!r}")
            return default
        if isinstance(v, (int, float)):
            return float(v)
        if isinstance(v, list) and all(isinstance(e, (int, float)) for e in v):
            if horizon is not None and len(v) != horizon:
                r.fail(f"dynamics.{key}",
                       f"length {len(v)} does not match horizon {horizon}")
                return default
            return tuple(float(e) for e in v)
        r.fail(f"dynamics.{key}", f"expected a number or list, got {v!r}")
        return default

    reproduction = day_series("reproduction", dd["reproduction"])
    screening = day_series("screening", dd["screening"])

    params = None
    try:
        params = DynamicsParams(r0, r_min, g_exp)
    except DomainError as exc:
        r.fail("dynamics", str(exc))

    dynamics = None
    if params is not None and not r.diagnostics:
        dynamics = DynamicsSettings(params, horizon, region_name,
                                    reproduction, screening, target, r_step)
        if region_name is not None and region_name not in names:
            r.fail("dynamics.region", f"unknown region {region_name!r}")
        try:
            dynamics.schedule()
        except DomainError as exc:
            r.fail("dynamics", str(exc))

    if r.diagnostics:
        raise ConfigError(sorted(r.diagnostics))
    return ScenarioConfig(tuple(regions), tuple(links), solver, dynamics, data)


def load_config(path: str | Path, shape_gate: bool = True) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError with diagnostics."""
    p = Path(path)
    if not p.exists():
        raise ConfigError([f"{p}: no such file"])
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{p}: invalid JSON ({exc})"]) from exc
    return parse_config(data, shape_gate=shape_gate)
