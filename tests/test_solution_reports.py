"""Every number the ``optimize``, ``game`` and ``simulate`` reports print,
re-derived from the library.

Each bundled fixture a command accepts is run in-process, in CSV and in
JSON, and so is each of a fixed draw of scenarios that
``tests/test_exit_codes.py`` makes by replacing one leaf of a fixture,
among those that parse; a drawn scenario that a command rejects (exit
code 1 or 2 in both formats) is counted as a Hypothesis event instead.
Both reports must print, to 12 significant digits, what the library
computes for each cell one call at a time: an ``optimize`` entry is
``minimize_over_imports`` or ``best_response``; a ``game`` Nash decision
is ``best_response`` to the other region, each total is the sum of its
decisions' costs, and the gap and ratio are ``price_of_noncooperation``;
a ``simulate`` day's cases follow ``step``, its total lies within 1e-11
of ``daily_cost``, relative, and the cumulative column is the running sum
of those. Both formats are checked against the same expectation, so they
carry the same numbers.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from epicost import cli
from epicost.config import load_config, parse_config
from epicost.errors import ConfigError
from epicost.fixtures import SCENARIOS, fixture_path
from epicost.game import (GameState, TravelLink, best_response, cooperative_optimum,
                          nash_iterate, price_of_noncooperation)
from epicost.importation import expected_imports
from epicost.optimize import minimize_over_imports
from epicost.trajectory import daily_cost, step
from test_exit_codes import CASES, replaced
from test_table_cells import csv_table

# relative distance a printed simulate day may lie from daily_cost: the
# 12-digit print adds up to 5e-12; the figures printed equal daily_cost's
# bit for bit, both costed by the scalar curves with libm's ``pow``
DAY_REL = 1e-11

TWO_REGIONS = [name for name in SCENARIOS
               if len(json.loads(fixture_path(name).read_text())["regions"]) == 2]


def reports(tmp_path, command, path):
    """The command's report on the scenario at ``path``: its CSV comment
    lines by key and rows as dicts, and its JSON document; None where the
    command exits with the same nonzero code in both formats."""
    text, codes = {}, set()
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        codes.add(cli.main([command, "--config", str(path), "--out", str(out),
                            "--format", fmt]))
        if codes == {0}:
            text[fmt] = (out / f"{command}.{fmt}").read_text()
    assert len(codes) == 1, codes
    return (csv_table(text["csv"]), json.loads(text["json"])) if codes == {0} else None


def shown(v):
    """A value as both reports print it, the JSON's read back: floats to 12
    significant digits, bools in lower case; a non-finite float is the
    same string in both."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, dict):
        return {key: shown(value) for key, value in v.items()}
    if isinstance(v, (list, tuple)):
        return [shown(value) for value in v]
    return v if v is None else str(v)


def decision_entry(d) -> dict:
    """A ``PolicyDecision`` as a JSON report holds it."""
    costs = d.costs
    return shown({"domestic_cases": d.domestic_cases, "screening": d.screening,
                  "import_threat": d.import_threat, "imports": d.imports,
                  "classification": d.classification,
                  "costs": {"transmission": costs.transmission, "border": costs.border,
                            "outbreak": costs.outbreak, "total": costs.total,
                            "net_total": costs.net_total},
                  "objective": d.objective})


def solver_args(cfg) -> dict:
    return {"grid_points": cfg.solver.grid_points, "foc_tol": cfg.solver.foc_tol}


def check_optimize(tmp_path, path) -> bool:
    """Whether ``optimize`` ran on the scenario at ``path``; if it did, its
    entries are the library's optima."""
    written = reports(tmp_path, "optimize", path)
    if written is None:
        return False
    (_, rows), doc = written
    cfg = load_config(path)
    want_rows, want_doc = [], {}
    for region in cfg.regions:
        imports = minimize_over_imports(region.curves, **solver_args(cfg))
        want_rows.append([region.name, "imports", *shown(
            [imports.argument, imports.cost, imports.classification, imports.foc_residual])])
        entry = {"imports": shown(imports._asdict()), "screening": None}
        link = cfg.inbound_link(region.name)
        if link is not None:
            d = best_response(region, cfg.region(link.origin), link, **solver_args(cfg))
            want_rows.append([region.name, "screening", *shown(
                [d.screening, d.objective, d.classification]), ""])
            entry["screening"] = decision_entry(d)
        want_doc[region.name] = entry
    assert [list(row.values()) for row in rows] == want_rows
    assert shown(doc["regions"]) == want_doc
    return True


@pytest.mark.parametrize("name", SCENARIOS)
def test_optimize_entries_are_the_library_optima(tmp_path, name):
    assert check_optimize(tmp_path, fixture_path(name))


def check_game(tmp_path, path) -> bool:
    """Whether ``game`` ran on the scenario at ``path``; if it did, its Nash
    decisions are best responses and its totals their sums."""
    written = reports(tmp_path, "game", path)
    if written is None:
        return False
    (comments, rows), doc = written
    cfg = load_config(path)
    state = GameState(tuple(cfg.regions), cfg.links)
    # a region with no inbound link responds to a link of no travellers
    nash = [best_response(region, state.opponent(region.name),
                          cfg.inbound_link(region.name)
                          or TravelLink(state.opponent(region.name).name, region.name, 0),
                          **solver_args(cfg))
            for region in cfg.regions]
    coop = cooperative_optimum(state)
    solved = nash_iterate(state, max_iters=cfg.solver.max_iterations,
                          tol=cfg.solver.nash_tol, **solver_args(cfg))
    assert solved.outcome.decisions == tuple(nash)
    gap, ratio = price_of_noncooperation(solved, coop)
    totals = {concept: sum(d.costs.total for d in decisions)
              for concept, decisions in (("nash", nash),
                                         ("cooperative", coop.outcome.decisions))}
    assert totals["cooperative"] == coop.outcome.total

    assert shown(doc["nash"]) == {"regions": {d.region: decision_entry(d) for d in nash},
                                  "total": shown(totals["nash"])}
    assert shown(doc["cooperative"]) == {
        "regions": {d.region: decision_entry(d) for d in coop.outcome.decisions},
        "total": shown(totals["cooperative"]),
        "steady_prevalences": shown(coop.steady_prevalences)}
    assert shown([doc[key] for key in ("gap", "ratio", "converged", "iterations")]) == shown(
        [gap, ratio, solved.converged, solved.iterations])

    assert [list(row.values()) for row in rows] == [
        [concept, d.region, *shown([d.domestic_cases, d.screening, d.import_threat, d.imports,
                                    d.costs.transmission, d.costs.border, d.costs.outbreak,
                                    d.costs.total])]
        for concept, decisions in (("nash", nash), ("cooperative", coop.outcome.decisions))
        for d in decisions]
    gap_, ratio_, converged = shown([gap, ratio, solved.converged])
    assert comments["summary"] == (f"gap={gap_} ratio={ratio_} converged={converged} "
                                   f"iterations={solved.iterations}")
    return True


@pytest.mark.parametrize("name", TWO_REGIONS)
def test_game_report_is_best_responses_and_their_sums(tmp_path, name):
    assert check_game(tmp_path, fixture_path(name))


def near(cell: str, exact: float) -> bool:
    return abs(float(cell) - exact) <= DAY_REL * abs(exact)


def check_simulate(tmp_path, path) -> bool:
    """Whether ``simulate`` ran on the scenario at ``path``; if it did, its
    days follow ``step`` and cost ``daily_cost``."""
    written = reports(tmp_path, "simulate", path)
    if written is None:
        return False
    (comments, rows), doc = written
    cfg = load_config(path)
    region, schedule = cfg.dynamics_region(), cfg.dynamics.schedule()
    curves, params = region.curves, schedule.params
    link = cfg.inbound_link(region.name)
    if link is None:
        # autarky: no imports, and a channel at the border curve's free
        # level, where it costs 0
        threat, screening = 0.0, (1.0,) * schedule.horizon
        channel = curves.border.i_free
    else:
        threat = channel = expected_imports(link.travelers, cfg.region(link.origin).prevalence)
        screening = schedule.screening
    assert [list(row.values()) for row in rows] == [
        [shown(row[key]) for key in rows[0]] for row in doc["days"]]

    cases, running = [region.domestic_cases], 0.0
    for t, (row, r, f) in enumerate(zip(rows, schedule.reproduction, screening)):
        cost = daily_cost(curves, cases[t], r, f, channel, params)
        running += cost
        assert (row["day"], row["cases"]) == (str(t), shown(cases[t]))
        assert near(row["cost_total"], cost) and near(row["cumulative"], running), t
        if link is None:
            assert row["cost_border"] == "0"
        cases.append(step(cases[t], r, threat * f, curves.import_multiplier))
    assert len(rows) == schedule.horizon
    assert comments["final_cases"] == shown(doc["final_cases"]) == shown(cases[-1])
    assert near(shown(doc["cumulative_cost"]), running)
    return True


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_days_are_daily_costs(tmp_path, name):
    assert check_simulate(tmp_path, fixture_path(name))


def parses(case) -> bool:
    try:
        parse_config(replaced(*case))
    except ConfigError:
        return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES))
def test_drawn_scenarios_reports_are_the_library_values(case):
    # a filter on sampled_from may test every case once its draws fail
    assume(parses(case))
    name, path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(replaced(name, path, value)))
        for check in (check_optimize, check_game, check_simulate):
            ran = check(Path(tmp) / check.__name__, scenario)
            event(f"{check.__name__}: {'checked' if ran else 'rejected'}")
