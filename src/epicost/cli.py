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

A CSV table of four chunks or more is formatted on up to one process per
usable CPU and written in row order by this one (``_write_csv``). The
``compare-schedules`` table is never held whole: each process computes
the rows of the chunks it formats from the schedule scan, with their part
of the summary line, and the formatted rows wait in an unnamed file until
the summary, which precedes them, is known.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 runtime
invariant violation.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .config import ScenarioConfig, load_config
from .costs import validate_curve_set
from .errors import ConfigError, DomainError, InvariantViolation, NumericalFailure
from .game import GameState, best_response, solve_game
from .importation import ImportScenario, expected_imports, pmf_support, sample_imports
from .optimize import minimize_over_imports
from .trajectory import ScheduleScan, compare_monotone_vs_relax, simulate, summarize

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
    """A CSV column of few distinct values, ``values[codes]``, with the
    values' cells (``_coded_cells``) when they are worth formatting once."""

    values: np.ndarray
    codes: np.ndarray
    cells: Optional[np.ndarray] = None


def _coded_cells(values) -> np.ndarray:
    """Each value's cell, by the rules of its column, as an object array."""
    fmt, take = _column_format(values)
    return np.array([fmt % v for v in take(slice(None))], dtype=object)


def _column_format(column):
    """A column's ``%`` format and a function from a row slice to its cells.

    Numbers are filled in by the row template (floats ``%.12g``, ints and
    ``range`` columns ``%d``); a ``_Coded`` column takes its values' cells
    by code, or is formatted as ``values[codes]`` when it holds no cells;
    bools index their two cells; any other column is text.
    """
    if isinstance(column, _Coded):
        if column.cells is None:
            return _column_format(column.values[column.codes])
        return "%s", lambda rows: column.cells.take(column.codes[rows]).tolist()
    if isinstance(column, range):
        return "%d", lambda rows: list(column[rows])
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "b":
        return "%s", lambda rows: _BOOL_CELLS.take(column[rows].view(np.uint8)).tolist()
    if kind in "fiu":
        return ("%.12g" if kind == "f" else "%d"), lambda rows: column[rows].tolist()
    return "%s", lambda rows: [_quote(_cell(v)) for v in column[rows]]


def _csv_workers(n_chunks: int) -> int:
    """Processes that format a table of ``n_chunks`` chunks: one per usable
    CPU, but at most one per two chunks; 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_chunks // 2))


class _Rows(NamedTuple):
    """A table body of ``n`` rows computed a chunk at a time.

    ``chunk(lo, hi)`` gives the columns of rows ``lo .. hi - 1``. A table
    whose comment lines summarise every row also gives ``summary``: its
    ``chunk`` then gives the columns and a picklable summary of their
    rows, and ``summary`` turns the summaries of every chunk, in row
    order, into those lines.
    """

    n: int
    chunk: Callable
    summary: Optional[Callable] = None


def _sliced(columns) -> _Rows:
    """Equal-length columns as the ``_Rows`` that slices them, each coded
    column's values formatted once."""
    first = columns[0]
    columns = [col._replace(cells=_coded_cells(col.values))
               if isinstance(col, _Coded) and col.cells is None else col for col in columns]

    def chunk(lo: int, hi: int):
        return [col._replace(codes=col.codes[lo:hi]) if isinstance(col, _Coded)
                else col[lo:hi] for col in columns]

    return _Rows(len(first.codes if isinstance(first, _Coded) else first), chunk)


def _chunk_text(columns) -> str:
    """The CSV lines of a chunk given as equal-length columns."""
    formats, takes = zip(*map(_column_format, columns))
    template = ",".join(formats) + "\n"
    cells = [take(slice(None)) for take in takes]
    lines = [template % row for row in zip(*cells)]
    del cells   # before the lines are joined
    return "".join(lines)


def _ordered_map(fn, n: int, workers: int):
    """``fn(k)`` for ``k = 0 .. n - 1`` in order: in this process with one
    worker, else over ``workers`` processes (``_forkwrite``)."""
    if workers == 1:
        yield from map(fn, range(n))
    else:
        from ._forkwrite import forked_map   # compiled only by commands that fork

        yield from forked_map(fn, n, workers)


def _write_csv(path: Path, header, columns, config_raw: dict, comments=()) -> Path:
    """Write a table, given as equal-length columns or as ``_Rows``, one
    chunk of rows at a time.

    A numeric or bool numpy column is converted with ``tolist`` once per
    chunk and filled into a ``%`` row template: floats ``%.12g``, ints
    ``%d``, bools ``true``/``false``. A ``_Coded`` column of few distinct
    values is formatted once per value (``_coded_cells``). Any other column
    (a list or tuple, a string or object array) is formatted by ``_cell``
    and quoted as ``csv.QUOTE_MINIMAL`` quotes it. The bytes are those of a
    ``csv.writer`` over ``_cell`` values; rows are built
    ``_CSV_CHUNK_ROWS`` at a time, so a large table never exists as Python
    objects all at once.

    The chunks are one ordered map (``_ordered_map``) over ``W =
    _csv_workers(n_chunks)`` processes: process 0 is this one, the others
    are forked at its start and each does every W-th chunk. Each chunk's
    rows are computed and formatted in the process the chunk falls to, so
    a computed table is never whole anywhere. This process writes the
    config line, the comments, the header and every chunk in chunk order,
    so the bytes do not depend on W. A ``_Rows`` with a ``summary`` has
    its formatted chunks spooled to an unnamed file beside the report
    until every chunk's summary is in; only then is the report opened, so
    a summary that fails leaves no report. A child starts as a copy of
    this process, sharing its pages, and each process holds about one
    chunk at a time. With W = 1 nothing is forked.
    """
    rows = columns if isinstance(columns, _Rows) else _sliced(columns)
    n_chunks = -(-rows.n // _CSV_CHUNK_ROWS)

    def work(k: int):
        lo = k * _CSV_CHUNK_ROWS
        chunk = rows.chunk(lo, min(lo + _CSV_CHUNK_ROWS, rows.n))
        if rows.summary is None:
            return _chunk_text(chunk)
        columns, part = chunk
        return _chunk_text(columns), part

    results = _ordered_map(work, n_chunks, _csv_workers(n_chunks))
    with contextlib.closing(results), contextlib.ExitStack() as files:
        spool = None
        if rows.summary is not None:
            spool = files.enter_context(
                tempfile.TemporaryFile("w+", dir=path.parent, newline=""))
            comments = [*comments, *rows.summary(_spool(results, spool))]
            spool.seek(0)
        with open(path, "w", newline="") as fh:
            fh.write("# config: "
                     + json.dumps(_jsonable(config_raw), sort_keys=True,
                                  separators=(",", ":")) + "\n")
            for line in comments:
                fh.write(line + "\n")
            fh.write(",".join(_quote(name) for name in header) + "\n")
            if spool is None:
                # each chunk is dropped before the next is made, as a loop
                # variable would not be
                fh.writelines(results)
            else:
                shutil.copyfileobj(spool, fh)
    return path


def _spool(results, spool) -> list:
    """Write the text of each ``(text, summary)`` result to ``spool`` and
    return the summaries, in order."""
    parts = []

    def texts():
        for text, part in results:
            parts.append(part)
            yield text
            del text   # before the next is made

    spool.writelines(texts())
    return parts


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
    """A CSV report: column names, equal-length columns (or ``_Rows``) and
    comment lines."""

    header: Sequence[str]
    columns: Sequence | _Rows
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
        link_cols = [nus, probs, tails]
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
                "rows": _records(header[2:], link_cols)})

    if fmt == "json":
        return {"links": link_reports}, 0
    # origin and destination take one name per link: code the rows by link
    links = np.repeat(np.arange(len(cfg.links), dtype=np.int32),
                      [cols[0].shape[0] for cols in tables])
    origins = np.array([link.origin for link in cfg.links], dtype=object)
    destinations = np.array([link.destination for link in cfg.links], dtype=object)
    return _Table(header, [_Coded(origins, links), _Coded(destinations, links)]
                  + [np.concatenate(parts) for parts in zip(*tables)]), 0


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


def _compare_summary(verdicts, degenerate: bool, n_schedules: int) -> dict:
    """The ``summary`` of a compare-schedules report from a
    ``ScheduleComparison`` or a ``ScheduleSummary``."""
    return {
        "degenerate": degenerate,
        "n_schedules": n_schedules,
        **{key: getattr(verdicts, key) for key in (
            "best_cost", "best_index", "best_monotone_index", "cheapest_growth_index",
            "cheapest_relax_then_tighten_index", "monotone_dominates",
            "monotone_beats_relax_then_tighten")},
    }


def cmd_compare(cfg: ScenarioConfig, fmt: str, args):
    region = cfg.dynamics_region()
    dyn = cfg.dynamics
    comparison = (region.domestic_cases, dyn.target_cases, dyn.horizon, region.curves,
                  dyn.params, dyn.r_grid_step)
    header = ("index", "r_first", "r_second", "switch_day", "total_cost",
              "final_cases", "max_cases", "feasible", "runaway",
              "contains_growth", "relax_then_tighten")
    if fmt == "json":
        cmp_ = compare_monotone_vs_relax(*comparison)
        rows = (np.arange(cmp_.n_schedules), cmp_.r_first, cmp_.r_second, cmp_.switch_day,
                cmp_.total_cost, cmp_.final_cases, cmp_.max_cases, cmp_.feasible,
                cmp_.runaway, cmp_.contains_growth, cmp_.relax_then_tighten)
        return {"summary": _compare_summary(cmp_, cmp_.degenerate, cmp_.n_schedules),
                "schedules": _records(header, rows)}, 0

    # the CSV table is computed a chunk at a time, in the writer's processes
    scan = ScheduleScan(*comparison)
    # r_first and r_second take the grid values only: format each once,
    # unless the grid is longer than a chunk (a one-day grid of up to
    # MAX_SCHEDULES values), whose cells would outweigh the chunk's
    grid = _coded_cells(scan.r_grid) if scan.r_grid.shape[0] <= _CSV_CHUNK_ROWS else None

    def chunk(lo: int, hi: int):
        rows = scan.rows(lo, hi)
        return ((range(lo, hi), _Coded(scan.r_grid, rows.first_code, grid),
                 _Coded(scan.r_grid, rows.second_code, grid)) + rows[2:],
                rows.least(lo))

    def summary_line(parts):
        summary = _compare_summary(summarize(parts), scan.degenerate, scan.n)
        return ["# summary: " + json.dumps(_jsonable(summary), sort_keys=True,
                                           separators=(",", ":"))]

    return _Table(header, _Rows(scan.n, chunk, summary_line)), 0


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


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --seed/--grid/--tol replace the file's solver values and meet their bounds
    overrides = {key: value for key, value in (("seed", args.seed),
                                               ("grid_points", args.grid),
                                               ("foc_tol", args.tol))
                 if value is not None}
    cfg = load_config(args.config, shape_gate=args.command != "validate",
                      solver=overrides)

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
