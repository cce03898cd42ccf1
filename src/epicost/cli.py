"""Command-line interface: scenario ingestion, dispatch, report emission.

Commands: ``import-dist``, ``optimize``, ``game``, ``simulate``,
``compare-schedules``, ``validate``. Reports are CSV for tables and JSON
for solution objects (``--format`` overrides). Each command writes one
report, ``<command>.<format>`` in ``--out`` with ``-`` turned into ``_``
(``compare_schedules.csv``): a handler returns the report body and its exit
code, and ``run`` writes it. The body is a ``_Table`` for CSV and a dict
for JSON, which may hold ``_Table`` values; each handler builds each table
once, for either format. Floats are written with 12 significant digits
and reports carry no timestamps, so identical inputs produce byte-identical
files. Every report echoes the scenario config it
was produced from (JSON key ``config``; leading ``# config:`` comment line
in CSV).

Every table, CSV or JSON, is written a chunk of rows at a time by one
writer (``_write_report``): a report of four chunks or more is formatted
on up to one process per usable CPU, and the formatted rows wait in an
unnamed file until this process writes the text around them. The
``compare-schedules`` table is never held whole: each process computes
the rows of the chunks it formats from the schedule scan, with their part
of the summary, and the report is written once the summary is known. The
``import-dist`` table holds each link's pmf, tail sums and Monte Carlo
counts, one value each per support value; a chunk's ``nu`` values, link
codes and frequencies are made when it is formatted.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 runtime
invariant violation.
"""

import argparse
import contextlib
import itertools
import json
import os
import re
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
from .importation import ImportScenario, expected_imports, pmf_support, sample_counts
from .optimize import minimize_over_imports
from .trajectory import ScheduleScan, simulate, summarize

# rows computed and formatted per step of the report writer
_CHUNK_ROWS = 4096
# rows of a CSV chunk whose cells are held at once
_SLICE_ROWS = 512
# characters copied per step from the spool to the report
_COPY_CHARS = 1 << 16
_BOOL_CELLS = np.array(["false", "true"], dtype=object)
# largest accepted --mc-trials: sampling keeps a count per support value, not
# a draw per trial, so the cap bounds time, not memory: the largest
# perfbench imports job (three links, up to 100,000 travellers) took 20 s
# at the cap on a 2-core Xeon, in 38 MB peak RSS
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
    if isinstance(obj, _Table):
        return np.nan   # the table's place in a JSON report (_frame)
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


def _compact(obj) -> str:
    """``obj`` as one line of JSON, for the comment lines of a CSV report."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _quote(text: str) -> str:
    """Quote a cell as ``csv.QUOTE_MINIMAL`` does for a newline line terminator."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _Coded(NamedTuple):
    """A column of few distinct values, ``values[codes]``."""

    values: np.ndarray
    codes: np.ndarray


def _n_rows(column) -> int:
    return len(column.codes if isinstance(column, _Coded) else column)


def _column_format(column):
    """A column's ``%`` format and a function from a row slice to its cells.

    Numbers are filled in by the row template (floats ``%.12g``, ints and
    ``range`` columns ``%d``); a ``_Coded`` column formats each value its
    rows use once, and takes the cells by code; bools index their two
    cells; any other column is text.
    """
    if isinstance(column, _Coded):
        used = np.bincount(column.codes) > 0
        codes = np.cumsum(used)[column.codes] - 1   # a code's index among the used
        fmt, take = _column_format(column.values[:used.shape[0]][used])
        cells = np.array([fmt % v for v in take(slice(None))], dtype=object)
        return "%s", lambda rows: cells.take(codes[rows]).tolist()
    if isinstance(column, range):
        return "%d", lambda rows: list(column[rows])
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "b":
        return "%s", lambda rows: _BOOL_CELLS.take(column[rows].view(np.uint8)).tolist()
    if kind in "fiu":
        return ("%.12g" if kind == "f" else "%d"), lambda rows: column[rows].tolist()
    return "%s", lambda rows: [_quote(_cell(v)) for v in column[rows]]


def _workers(n_chunks: int) -> int:
    """Processes that format a report of ``n_chunks`` chunks: one per usable
    CPU, but at most one per two chunks; 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_chunks // 2))


class _Rows(NamedTuple):
    """A table body of ``n`` rows computed a chunk at a time.

    ``chunk(lo, hi)`` gives the columns of rows ``lo .. hi - 1``. A table
    summarised over every row also gives ``summary``: its ``chunk`` then
    gives the columns and a picklable summary of their rows, and
    ``summary`` turns the summaries of every chunk, in row order, into the
    report's entries that hold them (a comment line each in CSV, keys at
    the top of the document in JSON).
    """

    n: int
    chunk: Callable
    summary: Optional[Callable] = None


def _sliced(columns) -> _Rows:
    """Equal-length columns as the ``_Rows`` that slices them."""
    first = columns[0]

    def chunk(lo: int, hi: int):
        return [col._replace(codes=col.codes[lo:hi]) if isinstance(col, _Coded)
                else col[lo:hi] for col in columns]

    return _Rows(_n_rows(first), chunk)


def _chunk_text(columns) -> str:
    """The CSV lines of a chunk given as equal-length columns, whose
    cells are made ``_SLICE_ROWS`` rows at a time."""
    formats, takes = zip(*map(_column_format, columns))
    template = ",".join(formats) + "\n"

    def lines(rows: slice) -> str:
        return "".join([template % row for row in zip(*(take(rows) for take in takes))])

    return "".join(lines(slice(lo, lo + _SLICE_ROWS))
                   for lo in range(0, _n_rows(columns[0]), _SLICE_ROWS))


def _listed(column) -> list:
    """A column's values as Python objects, a ``_Coded`` column's by code."""
    if isinstance(column, _Coded):
        column = column.values[column.codes]
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _json_chunk(header, columns, depth: int, lo: int) -> str:
    """The rows of a chunk as ``json.dumps(indent=2, sort_keys=True)``
    writes the items of a list of row objects ``depth`` levels deep: one
    ``json.dumps`` of the chunk's rows, its brackets dropped and its lines
    indented, after a comma unless the chunk starts the table (``lo``)."""
    records = [dict(zip(header, row)) for row in zip(*map(_listed, columns))]
    text = json.dumps(_jsonable(records), indent=2, sort_keys=True)[1:-2]
    return ("," if lo else "") + text.replace("\n", "\n" + "  " * depth)


def _json_tables(obj, depth: int = 0):
    """The ``(table, depth)`` of each ``_Table`` in a JSON report, in the
    order ``json.dumps(sort_keys=True)`` writes them."""
    if isinstance(obj, _Table):
        yield obj, depth
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_tables(obj[key], depth + 1)
    elif isinstance(obj, list):
        for value in obj:
            yield from _json_tables(value, depth + 1)


def _frame(fmt: str, report, config_raw: dict, tables, summary: dict) -> list:
    """The text before each table of a report and after the last one.

    For CSV: the config line, the comments and the summary's entries as
    comment lines, then the header. For JSON: the document dumped once
    with each table as a bare ``NaN`` (``_jsonable``), cut there, and the
    table's brackets put in its place; no other value writes a bare
    ``NaN`` at the end of a line, for ``_jsonable`` turns non-finite
    floats into strings and a string holds no newline.
    """
    if fmt == "csv":
        lines = [f"# config: {_compact(config_raw)}", *report.comments,
                 *(f"# {key}: {_compact(value)}" for key, value in summary.items()),
                 ",".join(_quote(name) for name in report.header)]
        return ["".join(line + "\n" for line in lines), ""]
    text = json.dumps(_jsonable({"config": config_raw, **report, **summary}),
                      indent=2, sort_keys=True) + "\n"
    pieces = re.split(r"(?<=: )NaN(?=,?\n)", text)
    for i, (table, rows, depth) in enumerate(tables):
        pieces[i] += "["
        pieces[i + 1] = ("\n" + "  " * depth if rows.n else "") + "]" + pieces[i + 1]
    return pieces


def _ordered_map(fn, n: int, workers: int):
    """``fn(k)`` for ``k = 0 .. n - 1`` in order: in this process with one
    worker, else over ``workers`` processes (``_forkwrite``)."""
    if workers == 1:
        yield from map(fn, range(n))
    else:
        from ._forkwrite import forked_map   # compiled only by commands that fork

        yield from forked_map(fn, n, workers)


def _write_report(path: Path, fmt: str, report, config_raw: dict) -> Path:
    """Write a report, its tables a chunk of rows at a time.

    A CSV report is one ``_Table``: a ``# config:`` line, its comments and
    header, then its rows. A JSON report is a dict, written as
    ``json.dumps(indent=2, sort_keys=True)`` writes ``{"config":
    config_raw, **report}``, where each ``_Table`` it holds as a value is a
    list of row objects keyed by the header. The bytes are those of that
    one dump, and in CSV those of a ``csv.writer`` over ``_cell`` values
    (``_column_format`` says how each column is formatted).

    The tables are taken as equal-length columns or as ``_Rows``, and
    their chunks of ``_CHUNK_ROWS`` rows are one ordered map
    (``_ordered_map``) over ``W = _workers(n_chunks)`` processes: process
    0 is this one, the others are forked at its start and each does every
    W-th chunk. Each chunk's rows are computed and formatted (``_chunk_text``
    or ``_json_chunk``) in the process the chunk falls to, so a computed
    table is never whole anywhere, nor a large table ever held as Python
    objects all at once. This process spools the formatted chunks, in
    order, to an unnamed file beside the report; when every chunk's
    summary is in, it opens the report and writes the frame around the
    tables (``_frame``) and the spooled rows, so the bytes do not depend
    on W and a summary that fails leaves no report. A child starts as a
    copy of this process, sharing its pages, and each process holds about
    one chunk at a time. With W = 1 nothing is forked.
    """
    found = _json_tables(report) if fmt == "json" else [(report, 0)]
    tables = [(table, table.columns if isinstance(table.columns, _Rows)
               else _sliced(table.columns), depth) for table, depth in found]
    chunks = [(i, lo) for i, (_, rows, _) in enumerate(tables)
              for lo in range(0, rows.n, _CHUNK_ROWS)]

    def work(k: int):
        i, lo = chunks[k]
        table, rows, depth = tables[i]
        chunk = rows.chunk(lo, min(lo + _CHUNK_ROWS, rows.n))
        columns, part = chunk if rows.summary else (chunk, None)
        if fmt == "csv":
            return i, _chunk_text(columns), part
        return i, _json_chunk(table.header, columns, depth, lo), part

    sizes, parts, summary = [0] * len(tables), [[] for _ in tables], {}
    results = _ordered_map(work, len(chunks), _workers(len(chunks)))
    with (contextlib.closing(results),
          tempfile.TemporaryFile("w+", dir=path.parent, newline="") as spool):
        for i, text, part in results:
            sizes[i] += spool.write(text)
            parts[i].append(part)
            del text   # before the next is made
        for (_, rows, _), rows_parts in zip(tables, parts):
            if rows.summary:
                summary.update(rows.summary(rows_parts))
        pieces = _frame(fmt, report, config_raw, tables, summary)
        spool.seek(0)
        with open(path, "w", newline="") as fh:
            for piece, size in zip(pieces, sizes):
                fh.write(piece)
                while size:
                    size -= fh.write(spool.read(min(size, _COPY_CHARS)))
            fh.write(pieces[-1])
    return path


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
    """A table: column names, equal-length columns (or ``_Rows``) and, for
    a CSV report, comment lines."""

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
        rows = _import_rows(scenario, seed, trials)
        tables.append(rows)
        if fmt == "json":
            link_reports.append({
                "origin": link.origin, "destination": link.destination,
                "travelers": link.travelers,
                "expected_imports": expected_imports(link.travelers, origin.prevalence),
                "rows": _Table(header[2:], rows)})

    if fmt == "json":
        return {"links": link_reports}, 0
    # origin and destination take one name per link: code the rows by link
    origins = np.array([link.origin for link in cfg.links], dtype=object)
    destinations = np.array([link.destination for link in cfg.links], dtype=object)
    starts = list(itertools.accumulate((rows.n for rows in tables), initial=0))

    def chunk(lo: int, hi: int):
        spans = [(i, max(lo, start), min(hi, end))
                 for i, (start, end) in enumerate(zip(starts, starts[1:]))
                 if start < hi and lo < end]
        links = np.repeat(np.array([i for i, _, _ in spans], dtype=np.int32),
                          [end - start for _, start, end in spans])
        pieces = [tables[i].chunk(start - starts[i], end - starts[i])
                  for i, start, end in spans]
        return [_Coded(origins, links), _Coded(destinations, links),
                *(np.concatenate(parts) for parts in zip(*pieces))]

    return _Table(header, _Rows(starts[-1], chunk)), 0


def _import_rows(scenario: ImportScenario, seed: Optional[int], trials: int) -> _Rows:
    """One link's ``nu, pmf, tail_sum`` rows, and ``mc_freq`` over
    ``trials`` Monte Carlo trials if any; it holds the pmf, its tail sums
    and the counts, each one value per support value."""
    _, probs = pmf_support(scenario)
    first = scenario.support[0]
    # the tail sums leave out nu = 0
    tails = probs.copy()
    if first == 0:
        tails[0] = 0.0
    np.cumsum(tails, out=tails)
    counts = sample_counts(scenario, seed, trials) if trials > 0 else None

    def chunk(lo: int, hi: int):
        columns = [range(first + lo, first + hi), probs[lo:hi], tails[lo:hi]]
        if counts is not None:
            columns.append(counts[lo:hi] / trials)
        return columns

    return _Rows(probs.shape[0], chunk)


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
    table = _Table(header, columns, (f"# final_cases: {_cell(traj.final_cases)}",))
    if fmt == "json":
        return {"region": region.name,
                "days": table,
                "final_cases": traj.final_cases,
                "cumulative_cost": traj.cumulative_cost}, 0
    return table, 0


def cmd_compare(cfg: ScenarioConfig, fmt: str, args):
    region = cfg.dynamics_region()
    dyn = cfg.dynamics
    # the table is computed a chunk at a time, in the writer's processes
    scan = ScheduleScan(region.domestic_cases, dyn.target_cases, dyn.horizon,
                        region.curves, dyn.params, dyn.r_grid_step)
    header = ("index", "r_first", "r_second", "switch_day", "total_cost",
              "final_cases", "max_cases", "feasible", "runaway",
              "contains_growth", "relax_then_tighten")

    def chunk(lo: int, hi: int):
        rows = scan.rows(lo, hi)
        return ((range(lo, hi), _Coded(scan.r_grid, rows.first_code),
                 _Coded(scan.r_grid, rows.second_code)) + rows[2:], rows.least(lo))

    def summary(parts):
        return {"summary": {"degenerate": scan.degenerate, "n_schedules": scan.n,
                            **summarize(parts)._asdict()}}

    table = _Table(header, _Rows(scan.n, chunk, summary))
    return ({"schedules": table} if fmt == "json" else table), 0


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
    _write_report(path, fmt, report, cfg.raw)
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
