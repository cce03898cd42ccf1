"""Every cell of the two table reports, re-derived from the library.

``compare-schedules`` and ``import-dist`` are written a chunk at a time
over one, two or three processes. Their reports must give the same bytes
whatever the split, and their cells must be what the library computes
for them one at a time: a schedule row is ``simulate`` of its schedule,
the summary names the rows one scan of the table picks, a ``tail_sum`` is
``import_tail_sum``, a ``pmf`` is the exact ``hypergeom_pmf`` and the
Monte Carlo frequencies count every trial once. CSV and JSON carry the
same numbers.
"""

import csv
import json
import math

import numpy as np
import pytest

from epicost import cli
from epicost.config import parse_config
from epicost.errors import NumericalFailure
from epicost.fixtures import fixture_path
from epicost.importation import (ImportScenario, expected_imports, hypergeom_pmf,
                                 import_tail_sum)
from epicost.trajectory import RUNAWAY_CASES, PolicySchedule, r_grid, schedule_count, simulate

# rows a chunk holds here, so that the tables span dozens of chunks
CHUNK_ROWS = 97
TRIALS = 10_000
SAMPLED_ROWS = 100


def schedules_config():
    # 21 grid values over 12 days: 4,641 schedules, runaways among them
    cfg = json.loads(fixture_path("one_region_quadratic").read_text())
    cfg["regions"][0]["domestic_cases"] = 1e8
    cfg["dynamics"].update(horizon=12, target_cases=1e5)
    return cfg


def imports_config():
    # three links of 301, 194 and 121 support values: the second link's
    # table is two chunks exactly, so it ends on a chunk boundary
    cfg = json.loads(fixture_path("import_dist_small").read_text())
    cfg["regions"][0].update(population=2_000, prevalence=0.15)
    cfg["regions"][1].update(population=5_000, prevalence=0.05)
    cfg["regions"].append(dict(cfg["regions"][1], id="hub"))
    cfg["links"] = [{"origin": "src", "destination": "dst", "travelers": 300},
                    {"origin": "src", "destination": "hub", "travelers": 2 * CHUNK_ROWS - 1},
                    {"origin": "dst", "destination": "src", "travelers": 120}]
    return cfg


def reports(tmp_path, monkeypatch, command, cfg, *extra):
    """The command's report bytes in each format, the same for 1, 2 and 3
    writer processes."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(cli, "_CHUNK_ROWS", CHUNK_ROWS)
    out = {}
    for fmt in ("csv", "json"):
        written = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli, "_workers", lambda n_chunks, w=workers: w)
            target = tmp_path / f"{fmt}-{workers}"
            assert cli.main([command, "--config", str(path), "--out", str(target),
                             "--format", fmt, *extra]) == 0
            written.add((target / f"{command.replace('-', '_')}.{fmt}").read_bytes())
        assert len(written) == 1
        out[fmt] = written.pop().decode()
    return out


def csv_table(text):
    """The comment lines of a CSV report by key, and its rows as dicts."""
    lines = text.splitlines(keepends=True)
    comments = dict(line[2:].rstrip("\n").split(": ", 1) for line in lines
                    if line.startswith("#"))
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return comments, rows


def number(cell):
    """A CSV cell or a JSON value as the Python value the report printed."""
    if cell in ("true", "false"):
        return cell == "true"
    if isinstance(cell, str):
        return float(cell) if any(c in cell for c in ".einf") else int(cell)
    return cell


def printed(v):
    """A float as the report prints it, read back."""
    return float(f"{v:.12g}")


def least(totals, mask):
    """(least masked total, first row holding it), or (inf, -1)."""
    idx = np.flatnonzero(mask)
    if not idx.shape[0]:
        return math.inf, -1
    first = int(idx[np.argmin(totals[idx])])
    return float(totals[first]), first


def test_schedule_cells_are_simulated(tmp_path, monkeypatch):
    cfg = schedules_config()
    text = reports(tmp_path, monkeypatch, "compare-schedules", cfg)
    comments, csv_rows = csv_table(text["csv"])
    doc = json.loads(text["json"])
    header = list(csv_rows[0])
    rows = [tuple(number(row[key]) for key in header) for row in csv_rows]
    assert rows == [tuple(number(row[key]) for key in header) for row in doc["schedules"]]
    summary = json.loads(comments["summary"])
    assert summary == doc["summary"]

    scenario = parse_config(cfg)
    dyn, region = scenario.dynamics, scenario.dynamics_region()
    params, curves, horizon = dyn.params, region.curves, dyn.horizon
    x0, target = region.domestic_cases, dyn.target_cases
    grid = set(r_grid(params, dyn.r_grid_step).tolist())
    assert len(rows) == summary["n_schedules"] == schedule_count(len(grid), horizon)
    assert summary["degenerate"] is False
    assert [row[0] for row in rows] == list(range(len(rows)))

    # the verdicts of one scan over the printed table
    table = {key: np.array([row[i] for row in rows]) for i, key in enumerate(header)}
    feasible, growth = table["feasible"], table["contains_growth"]
    totals = table["total_cost"]
    best = least(totals, feasible)
    monotone = least(totals, feasible & ~growth)
    cheapest = least(totals, feasible & growth)
    rtt = least(totals, feasible & table["relax_then_tighten"])
    assert (summary["best_cost"], summary["best_index"]) == best
    assert summary["best_monotone_index"] == monotone[1]
    assert summary["cheapest_growth_index"] == cheapest[1]
    assert summary["cheapest_relax_then_tighten_index"] == rtt[1]
    assert summary["monotone_dominates"] == (cheapest[1] < 0 or cheapest[0] >= monotone[0])
    assert summary["monotone_beats_relax_then_tighten"] == (rtt[1] < 0 or rtt[0] >= monotone[0])

    named = {best[1], monotone[1], cheapest[1], rtt[1]} - {-1}
    sampled = np.random.default_rng(27).choice(len(rows), SAMPLED_ROWS, replace=False)
    runaways = 0
    for i in sorted(named | set(sampled.tolist())):
        (_, r1, r2, switch, total, final, peak, feasible_i, runaway, grows, rtt_i) = rows[i]
        assert r1 in grid and r2 in grid and 1 <= switch <= horizon
        assert (r1 == r2) == (switch == horizon)
        schedule = PolicySchedule((r1,) * switch + (r2,) * (horizon - switch),
                                  (1.0,) * horizon, params)
        try:
            traj = simulate(schedule, x0, curves)
        except NumericalFailure:
            assert runaway and peak > RUNAWAY_CASES and not feasible_i
            runaways += 1
            continue
        cases = np.asarray(traj.cases)
        assert (total, final, peak) == (printed(traj.cumulative_cost),
                                        printed(traj.final_cases), printed(cases.max()))
        assert not runaway and feasible_i == (traj.final_cases <= target)
        assert grows == bool(np.any(cases[1:] > cases[:-1]))
        assert rtt_i == (bool(cases[1] > cases[0]) and r2 < r1)
    assert 0 < runaways < len(named | set(sampled.tolist())) / 2


def printed_near(cell, exact, rel):
    """Whether a printed cell lies within ``rel`` of ``exact``, relative,
    beyond the half unit of its 12th digit that printing may add."""
    if exact == 0.0:
        return cell == 0.0
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(exact)) - 11)
    return abs(cell - exact) <= rel * exact + half_digit


def test_import_cells_are_the_exact_pmf_and_tail_sums(tmp_path, monkeypatch):
    cfg = imports_config()
    text = reports(tmp_path, monkeypatch, "import-dist", cfg, "--mc-trials", str(TRIALS))
    _, csv_rows = csv_table(text["csv"])
    links = json.loads(text["json"])["links"]
    regions = {region["id"]: region for region in cfg["regions"]}
    assert [(link["origin"], link["destination"], link["travelers"]) for link in links] == [
        (link["origin"], link["destination"], link["travelers"]) for link in cfg["links"]]
    assert len(links[1]["rows"]) == 2 * CHUNK_ROWS   # a table ending on a chunk boundary

    start = 0
    for link in links:
        origin = regions[link["origin"]]
        scenario = ImportScenario.from_prevalence(origin["population"], origin["prevalence"],
                                                  link["travelers"])
        assert link["expected_imports"] == printed(
            expected_imports(link["travelers"], origin["prevalence"]))
        lo, hi = scenario.support
        rows = csv_rows[start:start + hi - lo + 1]
        start += hi - lo + 1
        assert [(row["origin"], row["destination"]) for row in rows] == [
            (link["origin"], link["destination"])] * (hi - lo + 1)
        keys = ("nu", "pmf", "tail_sum", "mc_freq")
        values = [tuple(number(row[key]) for key in keys) for row in rows]
        assert values == [tuple(number(row[key]) for key in keys) for row in link["rows"]]
        assert [nu for nu, *_ in values] == list(range(lo, hi + 1))
        counts = []
        for nu, pmf, tail, freq in values:
            assert printed_near(pmf, hypergeom_pmf(scenario, nu), 1e-12), nu
            assert tail == printed(import_tail_sum(scenario, nu)), nu
            count = freq * TRIALS
            assert abs(count - round(count)) < 1e-6
            counts.append(round(count))
        assert sum(counts) == TRIALS
    assert start == len(csv_rows)
