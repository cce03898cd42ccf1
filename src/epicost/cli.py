"""Command-line interface: scenario ingestion, dispatch, report emission.

Commands: ``import-dist``, ``optimize``, ``game``, ``simulate``,
``compare-schedules``, ``validate``. Reports are CSV for tables and JSON
for solution objects (``--format`` overrides). Each command writes one
report, ``<command>.<format>`` in ``--out`` with ``-`` turned into ``_``
(``compare_schedules.csv``): a handler returns the report body and its exit
code, and ``run`` writes it. The body is a ``_Table``, or a list of
``_Table``s of one header, for CSV, and a dict for JSON, which may hold
``_Table`` values; each handler builds each table once, for either
format. Floats are written with 12 significant digits and reports carry
no timestamps, so identical inputs produce byte-identical files. Every
report echoes the scenario config it was produced from (JSON key
``config``; leading ``# config:`` comment line in CSV).

Every table, CSV or JSON, is written a chunk of rows at a time by one
writer (``_write_report``): a report of four chunks or more is formatted
on up to one process per usable CPU, and each process's formatted rows
wait in an unnamed file of its own until this process writes the text
around them. The
``compare-schedules`` table is never held whole: each process computes
the rows of the chunks it formats from the schedule scan, with their part
of the summary, and the report is written once the summary is known. The
``import-dist`` report holds a table per link, with its pmf, tail sums
(by ``importation._tail_sums``, as ``import_tail_sum`` returns them) and
Monte Carlo counts, one value each per support value; a chunk's ``nu``
values and frequencies, and in CSV the codes of its link's ``origin`` and
``destination``, are made when it is formatted. numpy is imported
inside the handlers and formatters that make arrays, so ``game``,
``optimize`` and ``validate``, whose tables are tuples of Python values,
and ``simulate``, whose columns are ``array('d')``, run without it.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 runtime
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .config import ScenarioConfig, load_config
from .costs import validate_curve_set
from .errors import ConfigError, DomainError, InvariantViolation, NumericalFailure
from .game import GameState, best_response, solve_game
from .importation import (ImportScenario, _support_pmf, _tail_sums, expected_imports,
                          sample_counts)
from .optimize import minimize_over_imports
from .trajectory import simulate, summarize

# rows computed and formatted per step of the report writer
_CHUNK_ROWS = 4096
# rows of a CSV chunk whose cells are held at once
_SLICE_ROWS = 512
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


def _numpy_scalar(v) -> bool:
    """Whether ``v`` is a numpy scalar (told without importing numpy); its
    ``item()`` is the Python value it holds."""
    return type(v).__module__ == "numpy"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, float):
        return f"{float(v):.12g}"
    if _numpy_scalar(v):
        return _cell(v.item())
    return str(v)


def _jsonable(obj):
    if isinstance(obj, _Table):
        return math.nan   # the table's place in a JSON report (_frame)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        v = float(obj)
        return _sig(v) if math.isfinite(v) else _cell(v)  # "inf"/"nan" as strings
    if _numpy_scalar(obj):
        return _jsonable(obj.item())
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


def _json_float(v: float) -> str:
    """``v`` as ``json.dumps`` writes ``_jsonable(v)``."""
    return repr(_sig(v)) if math.isfinite(v) else '"%s"' % _cell(v)


def _column_format(column, fmt: str):
    """A column's ``%`` format in a ``fmt`` row and a function from a row
    slice to its cells.

    Numbers are filled in by the row template (ints and ``range`` columns
    ``%d``, floats ``%.12g`` in CSV, an ``array('d')``'s too); a
    ``_Coded`` column formats each value its rows use once, and takes the
    cells by code; bools index their two cells; JSON floats and any other
    column are text, as ``_quote`` or ``json.dumps`` writes them.
    """
    if isinstance(column, _Coded):
        import numpy as np

        used = np.bincount(column.codes) > 0
        codes = np.cumsum(used)[column.codes] - 1   # a code's index among the used
        form, take = _column_format(column.values[:used.shape[0]][used], fmt)
        cells = np.array([form % v for v in take(slice(None))], dtype=object)
        return "%s", lambda rows: cells.take(codes[rows]).tolist()
    if isinstance(column, range):
        return "%d", lambda rows: list(column[rows])
    kind = ("f" if isinstance(column, array) else   # simulate's columns
            column.dtype.kind if hasattr(column, "dtype") else "O")   # an ndarray's
    if kind == "b":
        import numpy as np

        cells = np.array(["false", "true"], dtype=object)
        return "%s", lambda rows: cells.take(column[rows].view(np.uint8)).tolist()
    if kind == "f" and fmt == "json":
        return "%s", lambda rows: [_json_float(v) for v in column[rows].tolist()]
    if kind in "fiu":
        return ("%.12g" if kind == "f" else "%d"), lambda rows: column[rows].tolist()
    if fmt == "csv":
        return "%s", lambda rows: [_quote(_cell(v)) for v in column[rows]]
    return "%s", lambda rows: [json.dumps(_jsonable(v)) for v in column[rows]]


def _workers(n_chunks: int) -> int:
    """Processes that format a report of ``n_chunks`` chunks: one per usable
    CPU, but at most one per two chunks; 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_chunks // 2))


class _Table(NamedTuple):
    """A table of ``n`` rows computed a chunk at a time, named by ``header``.

    ``chunk(lo, hi)`` gives the columns of rows ``lo .. hi - 1``. A table
    summarised over every row also gives ``summary``: its ``chunk`` then
    gives the columns and a picklable summary of their rows, and
    ``summary`` turns the summaries of every chunk, in row order, into the
    report's entries that hold them (a comment line each in CSV, keys at
    the top of the document in JSON). ``comments`` are the comment lines
    of a CSV report whose first table this is.
    """

    header: Sequence[str]
    n: int
    chunk: Callable
    summary: Optional[Callable] = None
    comments: Sequence[str] = ()


def _table(header, columns, comments=()) -> _Table:
    """Equal-length columns as the ``_Table`` that slices them."""
    def chunk(lo: int, hi: int):
        return [col._replace(codes=col.codes[lo:hi]) if isinstance(col, _Coded)
                else col[lo:hi] for col in columns]

    return _Table(header, _n_rows(columns[0]), chunk, comments=comments)


def _chunk_text(fmt: str, header, columns, depth: int) -> str:
    """The rows of a chunk given as equal-length columns, whose cells are
    made ``_SLICE_ROWS`` rows at a time from one row template.

    A CSV row is its cells joined by commas. A JSON row is the row object
    keyed by ``header`` as ``json.dumps(indent=2, sort_keys=True)`` writes
    an item of a list ``depth`` levels deep, after a comma.
    """
    cells = [_column_format(column, fmt) for column in columns]
    if fmt == "csv":
        formats, takes = zip(*cells)
        template = ",".join(formats) + "\n"
    else:
        keyed = sorted(dict(zip(header, cells)).items())   # a key once, as in a dict row
        indent = "\n" + "  " * (depth + 1)
        template = ",%s{%s%s}" % (indent, ",".join(
            indent + "  " + json.dumps(key).replace("%", "%%") + ": " + form
            for key, (form, _) in keyed), indent)
        takes = [take for _, (_, take) in keyed]

    def lines(rows: slice) -> str:
        return "".join([template % row for row in zip(*(take(rows) for take in takes))])

    return "".join(lines(slice(lo, lo + _SLICE_ROWS))
                   for lo in range(0, _n_rows(columns[0]), _SLICE_ROWS))


def _tables(obj, depth: int = 0):
    """The ``(table, depth)`` of each ``_Table`` in a report, in the order
    ``json.dumps(sort_keys=True)`` writes them."""
    if isinstance(obj, _Table):
        yield obj, depth
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _tables(obj[key], depth + 1)
    elif isinstance(obj, list):
        for value in obj:
            yield from _tables(value, depth + 1)


def _frame(fmt: str, report, config_raw: dict, tables, summary: dict) -> list:
    """The text before each table of a report and after the last one.

    For CSV: the config line, the first table's comments and the
    summary's entries as comment lines, then the first table's header;
    nothing between tables or after the last. For JSON: the document
    dumped once with each table as a bare ``NaN`` (``_jsonable``), cut
    there, and the table's brackets put in its place; no other value
    writes a bare ``NaN`` at the end of a line, for ``_jsonable`` turns
    non-finite floats into strings and a string holds no newline.
    """
    if fmt == "csv":
        first = tables[0][0]
        lines = [f"# config: {_compact(config_raw)}", *first.comments,
                 *(f"# {key}: {_compact(value)}" for key, value in summary.items()),
                 ",".join(_quote(name) for name in first.header)]
        return ["".join(line + "\n" for line in lines), *[""] * len(tables)]
    text = json.dumps(_jsonable({"config": config_raw, **report, **summary}),
                      indent=2, sort_keys=True) + "\n"
    pieces = re.split(r"(?<=: )NaN(?=,?\n)", text)
    for i, (table, depth) in enumerate(tables):
        pieces[i] += "["
        pieces[i + 1] = ("\n" + "  " * depth if table.n else "") + "]" + pieces[i + 1]
    return pieces


def _write_report(path: Path, fmt: str, report, config_raw: dict) -> Path:
    """Write a report, its tables a chunk of rows at a time.

    Both formats find a report's tables by one walk (``_tables``). A CSV
    report is a ``_Table`` or a list of them, all of one header: a
    ``# config:`` line, the first table's comments and header, then the
    rows of every table in order. A JSON report is a dict, written as
    ``json.dumps(indent=2, sort_keys=True)`` writes ``{"config":
    config_raw, **report}``, where each ``_Table`` it holds as a value is a
    list of row objects keyed by the header. The bytes are those of that
    one dump, and in CSV those of a ``csv.writer`` over ``_cell`` values,
    in UTF-8; the two formats differ only in their row template
    (``_chunk_text``).

    The tables' chunks of ``_CHUNK_ROWS`` rows are shared among ``W =
    _workers(n_chunks)`` processes: process 0 is this one, the others are
    forked at its start (``_forkwrite``) and each does every W-th chunk.
    A chunk's rows are computed, formatted (``_chunk_text``) and appended
    to an unnamed spool file beside the report by the process the chunk
    falls to, which passes on only its byte count and summary part; so a
    computed table is never whole anywhere, nor held as Python objects.
    When every summary part is in, this process opens the report and
    writes the frame around the tables (``_frame``) and each chunk's
    bytes from its process's spool, so the bytes do not depend on W and
    a summary that fails leaves no report. A child starts as a copy of
    this process, sharing its pages, and each process holds about one
    chunk at a time. A spool's failed write names the report.
    """
    tables = list(_tables(report))
    chunks = [(i, lo) for i, (table, _) in enumerate(tables)
              for lo in range(0, table.n, _CHUNK_ROWS)]
    # table i's chunks are chunks[bounds[i]:bounds[i + 1]]
    bounds = [0, *itertools.accumulate(-(-table.n // _CHUNK_ROWS) for table, _ in tables)]

    def work(k: int, spool):
        i, lo = chunks[k]
        table, depth = tables[i]
        chunk = table.chunk(lo, min(lo + _CHUNK_ROWS, table.n))
        columns, part = chunk if table.summary else (chunk, None)
        text = _chunk_text(fmt, table.header, columns, depth)
        text = text[1:] if fmt == "json" and not lo else text   # no comma first
        return spool.write(text.encode()), part

    workers = _workers(len(chunks))
    try:
        with contextlib.ExitStack() as stack:
            spools = [stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
                      for _ in range(workers)]
            if workers == 1:
                done = [work(k, spools[0]) for k in range(len(chunks))]
            else:
                from ._forkwrite import forked_map   # compiled only by commands that fork

                done = forked_map(work, len(chunks), spools)
            summary = {}
            for (table, _), lo, hi in zip(tables, bounds, bounds[1:]):
                if table.summary:
                    summary.update(table.summary([part for _, part in done[lo:hi]]))
            pieces = _frame(fmt, report, config_raw, tables, summary)
            for spool in spools:
                spool.seek(0)
            with open(path, "wb") as fh:
                for piece, lo, hi in zip(pieces, bounds, bounds[1:]):
                    fh.write(piece.encode())
                    for k in range(lo, hi):
                        fh.write(spools[k % workers].read(done[k][0]))
                fh.write(pieces[-1].encode())
    except OSError as exc:
        if exc.filename is None:   # a spool's: it has no name of its own
            exc.filename = str(path)
        raise
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
    return _table(("region", "check", "passed", "detail"), list(zip(*rows))), code


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

    per_link = []   # the link's table in CSV, its entry in JSON
    for link in cfg.links:
        origin = cfg.region(link.origin)
        scenario = ImportScenario.from_prevalence(
            origin.population, origin.prevalence, link.travelers)
        rows = _import_rows(scenario, seed, trials)
        if fmt == "csv":
            per_link.append(_on_link(rows, link))
            continue
        try:
            limit = expected_imports(link.travelers, origin.prevalence)
        except NumericalFailure:   # written "inf", as any non-finite float
            limit = math.inf
        per_link.append({"origin": link.origin, "destination": link.destination,
                         "travelers": link.travelers, "expected_imports": limit,
                         "rows": rows})
    return ({"links": per_link} if fmt == "json" else per_link), 0


def _import_rows(scenario: ImportScenario, seed: Optional[int], trials: int) -> _Table:
    """One link's ``nu, pmf, tail_sum`` rows (``import_tail_sum``'s tail
    sums), and ``mc_freq`` over ``trials`` Monte Carlo trials if any; it
    holds the pmf, its tail sums and the counts, one value each a support value."""
    probs = _support_pmf(scenario)
    first = scenario.support[0]
    tails = _tail_sums(probs, first)
    counts = sample_counts(scenario, seed, trials) if trials > 0 else None

    def chunk(lo: int, hi: int):
        columns = [range(first + lo, first + hi), probs[lo:hi], tails[lo:hi]]
        if counts is not None:
            columns.append(counts[lo:hi] / trials)
        return columns

    header = ("nu", "pmf", "tail_sum") + (("mc_freq",) if counts is not None else ())
    return _Table(header, probs.shape[0], chunk)


def _on_link(rows: _Table, link) -> _Table:
    """A link's rows with its ``origin`` and ``destination`` first, each a
    ``_Coded`` column of one value, so no string is held per row."""
    import numpy as np

    names = [np.array([name], dtype=object) for name in (link.origin, link.destination)]

    def chunk(lo: int, hi: int):
        codes = np.zeros(hi - lo, dtype=np.uint8)
        return [*(_Coded(values, codes) for values in names), *rows.chunk(lo, hi)]

    return rows._replace(header=("origin", "destination", *rows.header), chunk=chunk)


def cmd_optimize(cfg: ScenarioConfig, fmt: str, args):
    per_region = {}
    for region in cfg.regions:
        entry = {"imports": minimize_over_imports(
            region.curves, grid_points=cfg.solver.grid_points,
            foc_tol=cfg.solver.foc_tol)._asdict()}
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
    return _table(("region", "variable", "argument", "cost", "classification",
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
    return _table(("solution", "region", "domestic_cases", "screening",
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
    columns = (range(days), traj.cases[:days], traj.transmission_costs,
               traj.border_costs, traj.outbreak_costs, traj.total_costs,
               traj.cumulative)
    table = _table(header, columns, (f"# final_cases: {_cell(traj.final_cases)}",))
    if fmt == "json":
        return {"region": region.name,
                "days": table,
                "final_cases": traj.final_cases,
                "cumulative_cost": traj.cumulative_cost}, 0
    return table, 0


def cmd_compare(cfg: ScenarioConfig, fmt: str, args):
    from ._kernels import ScheduleScan

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

    table = _Table(header, scan.n, chunk, summary)
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
