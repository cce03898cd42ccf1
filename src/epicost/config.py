"""Scenario configuration: JSON schema, validation, and typed settings.

A scenario file is a single JSON object with four blocks: ``regions`` (each
carrying its ``curves``), ``links``, ``solver`` and ``dynamics``. All
numbers are decimal; a transmission curve's ``tti_capacity`` may be null or
"inf" for a curve whose per-case regime never breaks down. Validation
collects every violation with its field path before failing.
"""

import json
import math
from pathlib import Path

from ._record import Record
from .costs import (BorderCost, CostCurveSet, OutbreakCost, TransmissionCost,
                    validate_curve_set)
from .errors import ConfigError, DomainError
from .game import MAX_ITERATIONS, NASH_TOL, RegionLookup, RegionState, TravelLink
from .optimize import FOC_TOL, GRID_POINTS
from .trajectory import DynamicsParams, PolicySchedule

# largest accepted solver.grid_points (and --grid): the optimizer's grid
# search holds a block per halving, not the grid, so the cap bounds time,
# not memory. optimize --grid 10000000 on boundary_trio (seven solves) took
# 0.2 s in 16 MB peak RSS on a 2-core Xeon (55 s when every point was
# costed), but a cost flat within the tie tolerance prunes nothing: one
# such solve at the cap took 20 s, against 10.5 s for costing every point
MAX_GRID_POINTS = 10_000_000
# largest accepted dynamics.horizon: at the cap, with a travel channel,
# simulate took 0.43-0.71 s with its CSV report and 0.74-1.10 s with its JSON
# one on a 2-core Xeon as its load varied (4-11 us a day), and a
# one-value-grid compare-schedules 1.7 s (about 17 us a day)
MAX_HORIZON = 100_000


class SolverSettings(Record):
    grid_points: int = GRID_POINTS
    foc_tol: float = FOC_TOL
    max_iterations: int = MAX_ITERATIONS
    nash_tol: float = NASH_TOL
    seed: int | None = None


class DynamicsSettings(Record):
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


class ScenarioConfig(RegionLookup, Record):
    regions: tuple[RegionState, ...]
    links: tuple[TravelLink, ...]
    solver: SolverSettings
    dynamics: DynamicsSettings
    raw: dict

    _unshown = ("raw",)

    def dynamics_region(self) -> RegionState:
        if self.dynamics.region is not None:
            return self.region(self.dynamics.region)
        return self.regions[0]


# each value kind a field may take: accepted types and how diagnostics name it
_KINDS = {"object": (dict, "an object"), "number": ((int, float), "a number"),
          "integer": (int, "an integer"), "string": (str, "a string")}


class _Reader:
    """Pulls typed values out of nested dicts, collecting path-tagged diagnostics."""

    def __init__(self):
        self.diagnostics: list[str] = []

    def fail(self, path: str, msg: str):
        self.diagnostics.append(f"{path}: {msg}")

    def read(self, data, key, path, kind, default=None, required=False,
             minimum=None, maximum=None, allow_inf=False, positive=False):
        """``data[key]`` as a ``kind`` of ``_KINDS`` (a number as a float) within
        its bounds; ``default`` where it is missing, or invalid and reported."""
        where = f"{path}{key}"
        v = data.get(key)
        if v is None:
            if required:
                self.fail(where, f"missing required {kind}")
            return default
        types, noun = _KINDS[kind]
        if allow_inf and v == "inf":
            v = math.inf
        if isinstance(v, bool) or not isinstance(v, types):
            got = type(v).__name__ if kind == "object" else repr(v)
            self.fail(where, f"expected {noun}, got {got}")
            return default
        if kind == "number":
            v = float(v)
        shown = f"{v:g}" if kind == "number" else v
        # json.loads takes NaN and Infinity, which every bound below lets pass
        if kind == "number" and (math.isnan(v) or (math.isinf(v) and not allow_inf)):
            problem = f"must be finite, got {v}"
        elif minimum is not None and v < minimum:
            problem = f"must be >= {minimum}, got {shown}"
        elif maximum is not None and v > maximum:
            problem = f"must be <= {maximum}, got {shown}"
        elif positive and v <= 0:
            problem = f"must be > 0, got {v}"
        else:
            return v
        self.fail(where, problem)
        return default


def _defaults(cls) -> dict:
    """Field defaults of a settings record, where they are stated once."""
    return {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}


def _parse_curves(r: _Reader, block: dict, path: str) -> CostCurveSet | None:
    ct_b = r.read(block, "transmission", path, "object", required=True)
    cb_b = r.read(block, "border", path, "object", required=True)
    co_b = r.read(block, "outbreak", path, "object", default={})
    alpha = r.read(block, "import_multiplier", path, "number", default=1.0, minimum=1.0)
    if ct_b is None or cb_b is None or alpha is None:
        return None
    before = len(r.diagnostics)
    ct_path = f"{path}transmission."
    c0 = r.read(ct_b, "c0", ct_path, "number", required=True, minimum=0.0)
    tti_slope = r.read(ct_b, "tti_slope", ct_path, "number", default=0.0, minimum=0.0)
    tti_capacity = r.read(ct_b, "tti_capacity", ct_path, "number", default=math.inf,
                          minimum=0.0, allow_inf=True)
    jump = r.read(ct_b, "breakdown_jump", ct_path, "number", default=0.0, minimum=0.0)
    wide_slope = r.read(ct_b, "wide_slope", ct_path, "number", default=0.0, minimum=0.0)
    wide_exponent = r.read(ct_b, "wide_exponent", ct_path, "number", default=1.0,
                           minimum=1.0)
    cb_path = f"{path}border."
    b0 = r.read(cb_b, "b0", cb_path, "number", required=True, minimum=0.0)
    i_free = r.read(cb_b, "i_free", cb_path, "number", required=True, positive=True)
    curvature = r.read(cb_b, "curvature", cb_path, "number", default=1.0, minimum=1.0)
    co_path = f"{path}outbreak."
    per_case = r.read(co_b, "per_case", co_path, "number", default=0.0, minimum=0.0)
    exponent = r.read(co_b, "exponent", co_path, "number", default=1.0, minimum=1.0)
    if len(r.diagnostics) > before:
        return None
    # every bound the curve constructors check was read at its field above
    return CostCurveSet(
        TransmissionCost(c0, tti_slope, tti_capacity, jump, wide_slope, wide_exponent),
        BorderCost(b0, i_free, curvature),
        OutbreakCost(per_case, exponent),
        alpha)


def parse_config(data: dict, shape_gate: bool = True,
                 solver: dict | None = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON object.

    With ``shape_gate`` every region's curves must pass validate_curve_set;
    the ``validate`` command disables the gate to report failures instead.
    ``solver`` holds values laid over the file's ``solver`` block before it
    is read, so they meet the same bounds; ``raw`` stays ``data``.
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
        name = r.read(block, "id", path, "string", required=True)
        population = r.read(block, "population", path, "integer", required=True,
                            minimum=1)
        prevalence = r.read(block, "prevalence", path, "number", required=True,
                            minimum=0.0, maximum=1.0)
        domestic = r.read(block, "domestic_cases", path, "number", default=0.0,
                          minimum=0.0)
        curves_block = r.read(block, "curves", path, "object", required=True)
        curves = (None if curves_block is None
                  else _parse_curves(r, curves_block, f"{path}curves."))
        if None in (name, population, prevalence, domestic, curves):
            continue
        if shape_gate:
            report = validate_curve_set(curves)
            for check in report.failures():
                where = check.field_path or check.name
                r.fail(f"{path}curves.{where}",
                       f"shape invariant {check.name} violated ({check.detail})")
        regions.append(RegionState(name, population, prevalence, domestic, curves))

    names = [reg.name for reg in regions]
    # the region names are known once every region block was read whole
    names_known = 0 < len(names) == len(region_blocks)
    populations = {reg.name: reg.population for reg in regions}
    if len(set(names)) != len(names):
        r.fail("regions", "region ids must be unique")

    links: list[TravelLink] = []
    seen_directions = set()
    link_blocks = data.get("links")
    if not isinstance(link_blocks, (list, type(None))):
        r.fail("links", "expected a list of link blocks")
        link_blocks = None
    for i, block in enumerate(link_blocks or []):
        path = f"links[{i}]."
        if not isinstance(block, dict):
            r.fail(f"links[{i}]", "expected an object")
            continue
        origin = r.read(block, "origin", path, "string", required=True)
        destination = r.read(block, "destination", path, "string", required=True)
        travelers = r.read(block, "travelers", path, "integer", required=True, minimum=0)
        screening = r.read(block, "screening", path, "number", default=1.0,
                           minimum=0.0, maximum=1.0)
        if None in (origin, destination, travelers, screening):
            continue
        for endpoint, label in ((origin, "origin"), (destination, "destination")):
            if names_known and endpoint not in names:
                r.fail(f"{path}{label}", f"unknown region {endpoint!r}")
        # travellers are drawn from the origin's population
        if travelers > populations.get(origin, travelers):
            r.fail(f"{path}travelers", f"must be <= the population of {origin!r} "
                   f"({populations[origin]}), got {travelers}")
        if (origin, destination) in seen_directions:
            r.fail(f"links[{i}]", f"duplicate link {origin} -> {destination}")
        seen_directions.add((origin, destination))
        try:
            links.append(TravelLink(origin, destination, travelers, screening))
        except DomainError as exc:
            r.fail(f"links[{i}]", str(exc))

    sb = {**r.read(data, "solver", "", "object", default={}), **(solver or {})}
    sd = _defaults(SolverSettings)
    settings = SolverSettings(
        grid_points=r.read(sb, "grid_points", "solver.", "integer",
                           default=sd["grid_points"], minimum=3, maximum=MAX_GRID_POINTS),
        foc_tol=r.read(sb, "foc_tol", "solver.", "number", default=sd["foc_tol"],
                       positive=True),
        max_iterations=r.read(sb, "max_iterations", "solver.", "integer",
                              default=sd["max_iterations"], minimum=1),
        nash_tol=r.read(sb, "nash_tol", "solver.", "number", default=sd["nash_tol"],
                        positive=True),
        seed=r.read(sb, "seed", "solver.", "integer", default=sd["seed"], minimum=0),
    )

    before = len(r.diagnostics)
    db = r.read(data, "dynamics", "", "object", default={})
    pd, dd = _defaults(DynamicsParams), _defaults(DynamicsSettings)
    r0 = r.read(db, "r0", "dynamics.", "number", default=pd["r0"])
    r_min = r.read(db, "r_min", "dynamics.", "number", default=pd["r_min"], minimum=0.0)
    g_exp = r.read(db, "stringency_exponent", "dynamics.", "number",
                   default=pd["stringency_exponent"], positive=True)
    seen = len(r.diagnostics)
    horizon = r.read(db, "horizon", "dynamics.", "integer", default=dd["horizon"],
                     minimum=1, maximum=MAX_HORIZON)
    # a day series is held to the horizon only where the horizon read as valid
    horizon_valid = len(r.diagnostics) == seen
    region_name = r.read(db, "region", "dynamics.", "string", default=dd["region"])
    target = r.read(db, "target_cases", "dynamics.", "number",
                    default=dd["target_cases"], minimum=0.0)
    r_step = r.read(db, "r_grid_step", "dynamics.", "number",
                    default=dd["r_grid_step"], positive=True)

    def day_series(key, default):
        v = db.get(key, default)
        if isinstance(v, bool):
            r.fail(f"dynamics.{key}", f"expected a number or list, got {v!r}")
            return default
        if isinstance(v, (int, float)):
            return float(v)
        if isinstance(v, list) and all(isinstance(e, (int, float))
                                       and not isinstance(e, bool) for e in v):
            if horizon_valid and len(v) != horizon:
                r.fail(f"dynamics.{key}",
                       f"length {len(v)} does not match horizon {horizon}")
                return default
            return tuple(float(e) for e in v)
        r.fail(f"dynamics.{key}", f"expected a number or list, got {v!r}")
        return default

    reproduction = day_series("reproduction", dd["reproduction"])
    screening = day_series("screening", dd["screening"])

    dynamics = None
    try:
        params = DynamicsParams(r0, r_min, g_exp)
    except DomainError as exc:
        r.fail("dynamics", str(exc))
    # the schedule is checked once every value it is built from is valid
    if len(r.diagnostics) == before:
        dynamics = DynamicsSettings(params, horizon, region_name,
                                    reproduction, screening, target, r_step)
        try:
            dynamics.schedule()
        except DomainError as exc:
            r.fail("dynamics", str(exc))
    if names_known and region_name is not None and region_name not in names:
        r.fail("dynamics.region", f"unknown region {region_name!r}")

    if r.diagnostics:
        raise ConfigError(sorted(r.diagnostics))
    return ScenarioConfig(tuple(regions), tuple(links), settings, dynamics, data)


def load_config(path: str | Path, shape_gate: bool = True,
                solver: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError with diagnostics."""
    p = Path(path)
    if not p.exists():
        raise ConfigError([f"{p}: no such file"])
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{p}: invalid JSON ({exc})"]) from exc
    return parse_config(data, shape_gate=shape_gate, solver=solver)
