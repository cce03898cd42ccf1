"""Command-line interface: scenario ingestion, dispatch, report emission.

Commands: ``import-dist``, ``optimize``, ``game``, ``simulate``,
``compare-schedules``, ``validate``. Reports are CSV for tables and JSON
for solution objects (``--format`` overrides). Each command writes one
report, ``<command>.<format>`` in ``--out`` with ``-`` turned into ``_``
(``compare_schedules.csv``): a handler returns the report body and its exit
code, and ``run`` writes it. Floats are written with 12 significant digits
and reports carry no timestamps, so identical inputs produce byte-identical
files. Every report echoes the scenario config it
was produced from (JSON key ``config``; leading ``# config:`` comment line
in CSV).

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 runtime
invariant violation.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .config import ScenarioConfig, load_config, parse_config
from .costs import validate_curve_set
from .errors import ConfigError, DomainError, InvariantViolation, NumericalFailure
from .game import GameState, best_response, solve_game
from .importation import ImportScenario, expected_imports, pmf_support, sample_imports
from .optimize import minimize_over_imports
from .trajectory import compare_monotone_vs_relax, r_grid, simulate

# rows formatted and written per step of the CSV writer
_CSV_CHUNK_ROWS = 4096
_BOOL_CELLS = np.array(["false", "true"], dtype=object)
# largest accepted --mc-trials: the sampler holds 8 bytes per trial for up to
# two links at once, so a run stays under about 0.8 GB
MAX_MC_TRIALS = 50_000_000

_DEFAULT_FORMAT = {
    "import-dist": "csv",
    "optimize": "json",
    "game": "json",
    "simulate": "csv",
    "compare-schedules": "csv",
    "validate": "json",
}


def _sig(v: float) -> float:
    return float(f"{float(v):.12g}")


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return _sig(v) if np.isfinite(v) else _cell(v)  # "inf"/"nan" as strings
    return obj


def _write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")
    return path


def _quote(text: str) -> str:
    """Quote a cell as ``csv.QUOTE_MINIMAL`` does for a newline line terminator."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _Coded(NamedTuple):
    """A CSV column of few distinct numbers, ``values[codes]``."""

    values: np.ndarray
    codes: np.ndarray


def _column_format(column):
    """A column's ``%`` format and a function from a row slice to its cells.

    Numbers are filled in by the row template (floats ``%.12g``, ints
    ``%d``); a ``_Coded`` column formats each of its values once by those
    rules and takes the strings by code; bools index their two cells; any
    other column is text.
    """
    if isinstance(column, _Coded):
        fmt, _ = _column_format(column.values)
        cells = np.array([fmt % v for v in column.values.tolist()], dtype=object)
        return "%s", lambda rows: cells.take(column.codes[rows]).tolist()
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "b":
        return "%s", lambda rows: _BOOL_CELLS.take(column[rows].view(np.uint8)).tolist()
    if kind in "fiu":
        return ("%.12g" if kind == "f" else "%d"), lambda rows: column[rows].tolist()
    return "%s", lambda rows: [_quote(_cell(v)) for v in column[rows]]


def _write_csv(path: Path, header, columns, config_raw: dict, comments=()) -> Path:
    """Write a table given as equal-length columns, one chunk of rows at a time.

    A numeric or bool numpy column is converted with ``tolist`` once per
    chunk and filled into a ``%`` row template: floats ``%.12g``, ints
    ``%d``, bools ``true``/``false``. A ``_Coded`` column of few distinct
    numbers is formatted once per value. Any other column (a list or tuple,
    a string or object array) is formatted by ``_cell`` and quoted as
    ``csv.QUOTE_MINIMAL`` quotes it. The bytes are those of a ``csv.writer``
    over ``_cell`` values; rows are built ``_CSV_CHUNK_ROWS`` at a time, so
    a large table never exists as Python objects all at once.
    """
    formats, takes = zip(*map(_column_format, columns))
    template = ",".join(formats) + "\n"
    first = columns[0]
    n_rows = len(first.codes if isinstance(first, _Coded) else first)
    with open(path, "w", newline="") as fh:
        fh.write("# config: "
                 + json.dumps(_jsonable(config_raw), sort_keys=True,
                              separators=(",", ":")) + "\n")
        for line in comments:
            fh.write(line + "\n")
        fh.write(",".join(_quote(name) for name in header) + "\n")
        for lo in range(0, n_rows, _CSV_CHUNK_ROWS):
            rows = slice(lo, lo + _CSV_CHUNK_ROWS)
            cells = [take(rows) for take in takes]
            fh.write("".join([template % row for row in zip(*cells)]))
    return path


def _records(header, columns) -> list[dict]:
    """One dict per row of a table given as numpy columns, for JSON reports."""
    return [dict(zip(header, row)) for row in zip(*(col.tolist() for col in columns))]


def _decision_dict(d) -> dict:
    return {
        "domestic_cases": d.domestic_cases,
        "screening": d.screening,
        "import_threat": d.import_threat,
        "imports": d.imports,
        "classification": d.classification,
        "costs": {
            "transmission": d.costs.transmission,
            "border": d.costs.border,
            "outbreak": d.costs.outbreak,
            "total": d.costs.total,
            "net_total": d.costs.net_total,
        },
        "objective": d.objective,
    }


class _Table(NamedTuple):
    """A CSV report: column names, equal-length columns and comment lines."""

    header: Sequence[str]
    columns: Sequence
    comments: Sequence[str] = ()


def cmd_validate(cfg: ScenarioConfig, fmt: str, args):
    regions = {}
    all_pass = True
    for region in cfg.regions:
        report = validate_curve_set(region.curves)
        all_pass &= report.all_pass
        regions[region.name] = {
            "all_pass": report.all_pass,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in report.checks],
        }
    code = 0 if all_pass else 1
    if fmt == "json":
        return {"all_pass": all_pass, "regions": regions}, code
    rows = [(name, c["name"], c["passed"], c["detail"])
            for name, rep in regions.items() for c in rep["checks"]]
    return _Table(("region", "check", "passed", "detail"), list(zip(*rows))), code


def cmd_import_dist(cfg: ScenarioConfig, fmt: str, args):
    if not cfg.links:
        raise ConfigError(["links: import-dist needs at least one travel link"])
    trials = args.mc_trials
    if trials < 0:
        raise ConfigError([f"arguments: --mc-trials must be >= 0, got {trials}"])
    if trials > MAX_MC_TRIALS:
        raise ConfigError(
            [f"arguments: --mc-trials must be <= {MAX_MC_TRIALS}, got {trials}"])
    seed = cfg.solver.seed
    if trials > 0 and seed is None:
        raise ConfigError(
            ["solver.seed: required when Monte Carlo sampling is requested"])

    header = ["origin", "destination", "nu", "pmf", "tail_sum"]
    if trials > 0:
        header.append("mc_freq")
    tables = []
    link_reports = []
    for link in cfg.links:
        origin = cfg.region(link.origin)
        scenario = ImportScenario.from_prevalence(
            origin.population, origin.prevalence, link.travelers)
        nus, probs = pmf_support(scenario)
        tails = np.cumsum(np.where(nus >= 1, probs, 0.0))
        link_cols = [np.full(nus.shape[0], link.origin, dtype=object),
                     np.full(nus.shape[0], link.destination, dtype=object),
                     nus, probs, tails]
        if trials > 0:
            draws = sample_imports(scenario, seed, trials)
            counts = np.bincount(draws, minlength=int(nus[-1]) + 1)
            link_cols.append(counts[nus] / trials)
        tables.append(link_cols)
        if fmt == "json":
            link_reports.append({
                "origin": link.origin, "destination": link.destination,
                "travelers": link.travelers,
                "expected_imports": expected_imports(link.travelers, origin.prevalence),
                "rows": _records(header[2:], link_cols[2:])})

    if fmt == "json":
        return {"links": link_reports}, 0
    return _Table(header, [np.concatenate(parts) for parts in zip(*tables)]), 0


def cmd_optimize(cfg: ScenarioConfig, fmt: str, args):
    per_region = {}
    for region in cfg.regions:
        entry = {"imports": asdict(
            minimize_over_imports(region.curves,
                                  grid_points=cfg.solver.grid_points,
                                  foc_tol=cfg.solver.foc_tol))}
        link = cfg.inbound_link(region.name)
        if link is not None:
            decision = best_response(region, cfg.region(link.origin), link,
                                     grid_points=cfg.solver.grid_points,
                                     foc_tol=cfg.solver.foc_tol)
            entry["screening"] = _decision_dict(decision)
        else:
            entry["screening"] = None
        per_region[region.name] = entry

    if fmt == "json":
        return {"regions": per_region}, 0
    rows = []
    for name, entry in per_region.items():
        imp = entry["imports"]
        rows.append((name, "imports", imp["argument"], imp["cost"],
                     imp["classification"], imp["foc_residual"]))
        scr = entry["screening"]
        if scr is not None:
            rows.append((name, "screening", scr["screening"],
                         scr["objective"], scr["classification"], ""))
    return _Table(("region", "variable", "argument", "cost", "classification",
                   "foc_residual"), list(zip(*rows))), 0


def cmd_game(cfg: ScenarioConfig, fmt: str, args):
    if len(cfg.regions) != 2:
        raise ConfigError(
            [f"regions: the game command needs exactly 2 regions, got {len(cfg.regions)}"])
    state = GameState(tuple(cfg.regions), cfg.links)
    solution = solve_game(state,
                          max_iters=cfg.solver.max_iterations,
                          tol=cfg.solver.nash_tol,
                          grid_points=cfg.solver.grid_points,
                          foc_tol=cfg.solver.foc_tol)
    report = {
        "nash": {
            "regions": {d.region: _decision_dict(d)
                        for d in solution.nash.outcome.decisions},
            "total": solution.nash.outcome.total,
        },
        "cooperative": {
            "regions": {d.region: _decision_dict(d)
                        for d in solution.cooperative.outcome.decisions},
            "total": solution.cooperative.outcome.total,
            "steady_prevalences": list(solution.cooperative.steady_prevalences),
        },
        "gap": solution.gap,
        "ratio": solution.ratio,
        "converged": solution.converged,
        "iterations": solution.iterations,
    }
    if fmt == "json":
        return report, 0
    rows = []
    for concept in ("nash", "cooperative"):
        for name, d in report[concept]["regions"].items():
            rows.append((concept, name, d["domestic_cases"], d["screening"],
                         d["import_threat"], d["imports"],
                         d["costs"]["transmission"], d["costs"]["border"],
                         d["costs"]["outbreak"], d["costs"]["total"]))
    summary = (f"# summary: gap={_cell(solution.gap)} ratio={_cell(solution.ratio)} "
               f"converged={_cell(solution.converged)} "
               f"iterations={solution.iterations}")
    return _Table(("solution", "region", "domestic_cases", "screening",
                   "import_threat", "imports", "cost_transmission", "cost_border",
                   "cost_outbreak", "cost_total"), list(zip(*rows)), (summary,)), 0


def cmd_simulate(cfg: ScenarioConfig, fmt: str, args):
    region = cfg.dynamics_region()
    schedule = cfg.dynamics.schedule()
    link = cfg.inbound_link(region.name)
    threat = None
    if link is not None:
        threat = expected_imports(link.travelers,
                                  cfg.region(link.origin).prevalence)
    traj = simulate(schedule, region.domestic_cases, region.curves, threat)

    header = ("day", "cases", "cost_transmission", "cost_border",
              "cost_outbreak", "cost_total", "cumulative")
    days = schedule.horizon
    columns = (np.arange(days), traj.cases[:days], traj.transmission_costs,
               traj.border_costs, traj.outbreak_costs, traj.total_costs,
               traj.cumulative)
    if fmt == "json":
        return {"region": region.name,
                "days": _records(header, columns),
                "final_cases": traj.final_cases,
                "cumulative_cost": traj.cumulative_cost}, 0
    return _Table(header, columns, (f"# final_cases: {_cell(traj.final_cases)}",)), 0


def cmd_compare(cfg: ScenarioConfig, fmt: str, args):
    region = cfg.dynamics_region()
    dyn = cfg.dynamics
    cmp_ = compare_monotone_vs_relax(region.domestic_cases, dyn.target_cases,
                                     dyn.horizon, region.curves, dyn.params,
                                     r_step=dyn.r_grid_step)
    summary = {
        "degenerate": cmp_.degenerate,
        "n_schedules": cmp_.n_schedules,
        "best_cost": cmp_.best_cost,
        "best_index": cmp_.best_index,
        "best_monotone_index": cmp_.best_monotone_index,
        "cheapest_growth_index": cmp_.cheapest_growth_index,
        "cheapest_relax_then_tighten_index": cmp_.cheapest_relax_then_tighten_index,
        "monotone_dominates": cmp_.monotone_dominates,
        "monotone_beats_relax_then_tighten": cmp_.monotone_beats_relax_then_tighten,
    }
    header = ("index", "r_first", "r_second", "switch_day", "total_cost",
              "final_cases", "max_cases", "feasible", "runaway",
              "contains_growth", "relax_then_tighten")
    columns = (np.arange(cmp_.n_schedules), cmp_.r_first, cmp_.r_second,
               cmp_.switch_day, cmp_.total_cost, cmp_.final_cases, cmp_.max_cases,
               cmp_.feasible, cmp_.runaway, cmp_.contains_growth,
               cmp_.relax_then_tighten)
    if fmt == "json":
        return {"summary": summary, "schedules": _records(header, columns)}, 0
    comment = "# summary: " + json.dumps(_jsonable(summary), sort_keys=True,
                                         separators=(",", ":"))
    # r_first and r_second take the grid values only: format each once
    rs = r_grid(dyn.params, dyn.r_grid_step)
    coded = (_Coded(rs, np.searchsorted(rs, cmp_.r_first)),
             _Coded(rs, np.searchsorted(rs, cmp_.r_second)))
    return _Table(header, columns[:1] + coded + columns[3:], (comment,)), 0


_HANDLERS = {
    "import-dist": cmd_import_dist,
    "optimize": cmd_optimize,
    "game": cmd_game,
    "simulate": cmd_simulate,
    "compare-schedules": cmd_compare,
    "validate": cmd_validate,
}
COMMANDS = tuple(_HANDLERS)


class _Parser(argparse.ArgumentParser):
    # usage problems are config errors under the exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError([f"arguments: {message}"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="epicost",
                     description="Cost-of-policy toolkit for epidemic suppression")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="override solver.seed")
    parser.add_argument("--grid", type=int, default=None,
                        help="override solver.grid_points")
    parser.add_argument("--tol", type=float, default=None,
                        help="override solver.foc_tol")
    parser.add_argument("--mc-trials", type=int, default=0,
                        help="append Monte Carlo frequencies to import-dist")
    return parser


def _override_solver(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """``cfg`` with ``--seed``/``--grid``/``--tol`` merged into its solver block.

    The merged copy goes through ``parse_config`` again (the curves already
    passed the shape gate), so an override meets the same bounds as the
    file's own value. The echoed ``raw`` stays the file's.
    """
    overrides = {key: value for key, value in (("seed", args.seed),
                                               ("grid_points", args.grid),
                                               ("foc_tol", args.tol))
                 if value is not None}
    if not overrides:
        return cfg
    solver = {**(cfg.raw.get("solver") or {}), **overrides}
    merged = parse_config({**cfg.raw, "solver": solver}, shape_gate=False)
    return replace(merged, raw=cfg.raw)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _override_solver(
        load_config(args.config, shape_gate=args.command != "validate"), args)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fmt = args.format or _DEFAULT_FORMAT[args.command]
    report, code = _HANDLERS[args.command](cfg, fmt, args)
    path = out / f"{args.command.replace('-', '_')}.{fmt}"
    if fmt == "json":
        _write_json(path, {"config": cfg.raw, **report})
    else:
        _write_csv(path, report.header, report.columns, cfg.raw, report.comments)
    print(f"wrote {path}")
    return code


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an --out, report or --config path that cannot be used
        print(f"config error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
