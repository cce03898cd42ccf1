"""The streamed compare-schedules report against the whole-table path it replaced.

The CLI computes each chunk's rows, and their part of the summary, in the
process that formats the chunk, and spools the formatted rows until the
summary that the report needs is known. These tests check the bytes, in
CSV and JSON, against the report written from
``compare_monotone_vs_relax``'s full columns (the ``import-dist`` CSV
against one ``csv.writer`` row per support value of each link, and the
``simulate`` and ``import-dist`` JSON against one ``json.dumps`` of the
whole document),
the chunk-wise verdicts against one argmin over every row, the memory of
the whole command, and its exit paths.
"""

import csv
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicost import cli, trajectory
from epicost.config import parse_config
from epicost.costs import BorderCost, CostCurveSet, OutbreakCost, TransmissionCost
from epicost.errors import NumericalFailure
from epicost.fixtures import fixture_path, quadratic_set
from epicost.importation import ImportScenario, expected_imports, pmf_support, sample_imports
from epicost.trajectory import (DynamicsParams, ScheduleRows, ScheduleScan,
                                compare_monotone_vs_relax, simulate, summarize)

HEADER = ("index", "r_first", "r_second", "switch_day", "total_cost", "final_cases",
          "max_cases", "feasible", "runaway", "contains_growth", "relax_then_tighten")


def reference_comparison(scenario):
    """The summary and the columns of ``compare_monotone_vs_relax``."""
    region, dyn = scenario.dynamics_region(), scenario.dynamics
    cmp_ = compare_monotone_vs_relax(region.domestic_cases, dyn.target_cases, dyn.horizon,
                                     region.curves, dyn.params, r_step=dyn.r_grid_step)
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
    columns = (np.arange(cmp_.n_schedules), cmp_.r_first, cmp_.r_second, cmp_.switch_day,
               cmp_.total_cost, cmp_.final_cases, cmp_.max_cases, cmp_.feasible,
               cmp_.runaway, cmp_.contains_growth, cmp_.relax_then_tighten)
    return summary, columns


def reference_compare_csv(path, cfg):
    """The report as the CLI wrote it from the whole comparison: the summary
    of ``compare_monotone_vs_relax``, then one ``csv.writer`` row per
    schedule, every value through ``_cell``."""
    summary, columns = reference_comparison(parse_config(cfg))
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(cli._jsonable(cfg), sort_keys=True,
                                           separators=(",", ":")) + "\n")
        fh.write("# summary: " + json.dumps(cli._jsonable(summary), sort_keys=True,
                                            separators=(",", ":")) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for row in zip(*(col.tolist() for col in columns)):
            writer.writerow([cli._cell(v) for v in row])
    return path


def reference_import_columns(scenario, trials):
    """Each link and its whole ``nu, pmf, tail_sum`` columns, and
    ``mc_freq`` counted from every per-trial draw if ``trials``."""
    for link in scenario.links:
        origin = scenario.region(link.origin)
        imports = ImportScenario.from_prevalence(origin.population, origin.prevalence,
                                                 link.travelers)
        nus, probs = pmf_support(imports)
        columns = [nus, probs, np.cumsum(np.where(nus >= 1, probs, 0.0))]
        if trials:
            draws = sample_imports(imports, scenario.solver.seed, trials)
            columns.append(np.bincount(draws, minlength=int(nus[-1]) + 1)[nus] / trials)
        yield link, columns


def reference_import_csv(path, cfg, trials):
    """The import-dist report as the CLI wrote it from whole columns: one
    ``csv.writer`` row per support value of each link."""
    header = ["origin", "destination", "nu", "pmf", "tail_sum"] + (["mc_freq"] if trials else [])
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(cli._jsonable(cfg), sort_keys=True,
                                           separators=(",", ":")) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for link, columns in reference_import_columns(parse_config(cfg), trials):
            for row in zip(*(col.tolist() for col in columns)):
                writer.writerow([link.origin, link.destination, *map(cli._cell, row)])
    return path


def records(header, columns):
    """One dict per row of a table given as numpy columns."""
    return [dict(zip(header, row)) for row in zip(*(col.tolist() for col in columns))]


def reference_json(path, command, cfg, trials=0):
    """The JSON report as the CLI wrote it whole: each table a list of row
    dicts, the document one ``json.dumps``."""
    scenario = parse_config(cfg)
    if command == "compare-schedules":
        summary, columns = reference_comparison(scenario)
        report = {"summary": summary, "schedules": records(HEADER, columns)}
    elif command == "simulate":
        region, schedule = scenario.dynamics_region(), scenario.dynamics.schedule()
        link = scenario.inbound_link(region.name)
        threat = (None if link is None else
                  expected_imports(link.travelers, scenario.region(link.origin).prevalence))
        traj = simulate(schedule, region.domestic_cases, region.curves, threat)
        days = schedule.horizon
        columns = (np.arange(days), traj.cases[:days], traj.transmission_costs,
                   traj.border_costs, traj.outbreak_costs, traj.total_costs,
                   traj.cumulative)
        report = {"region": region.name,
                  "days": records(("day", "cases", "cost_transmission", "cost_border",
                                   "cost_outbreak", "cost_total", "cumulative"), columns),
                  "final_cases": traj.final_cases,
                  "cumulative_cost": traj.cumulative_cost}
    else:
        header = ("nu", "pmf", "tail_sum", "mc_freq")
        report = {"links": [{
            "origin": link.origin, "destination": link.destination,
            "travelers": link.travelers,
            "expected_imports": expected_imports(
                link.travelers, scenario.region(link.origin).prevalence),
            "rows": records(header[:len(columns)], columns)}
            for link, columns in reference_import_columns(scenario, trials)]}
    path.write_text(json.dumps(cli._jsonable({"config": cfg, **report}), indent=2,
                               sort_keys=True) + "\n")
    return path


def quadratic(**dynamics):
    cfg = json.loads(fixture_path("one_region_quadratic").read_text())
    cfg["dynamics"].update(dynamics)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tricky():
    """``import_dist_small`` with a key, region ids and strings that end in
    ``: NaN``, as a table's place does in the JSON document the CLI cuts,
    and links of 16 rows and of one."""
    cfg = json.loads(fixture_path("import_dist_small").read_text())
    src, dst = 'r": NaN', "\n: NaN\n"
    for region, name in zip(cfg["regions"], (src, dst)):
        region.update(id=name, population=1000)
    # room at dst's border for the 38 imports the link brings each day
    cfg["regions"][1]["curves"]["border"]["i_free"] = 1000.0
    cfg["links"] = [{"origin": src, "destination": dst, "travelers": 15},
                    {"origin": dst, "destination": src, "travelers": 15}]
    cfg["dynamics"].update(region=dst, horizon=12, r_grid_step=0.5)
    cfg["x: NaN"] = "\n: NaN\n"
    return cfg


def three_links():
    """``import_dist_small`` with a third region and three links of 11, 5
    and 6 support values, the last from nu = 45: 7-row chunks cut each
    link and two chunks span two links."""
    cfg = json.loads(fixture_path("import_dist_small").read_text())
    far = {**cfg["regions"][0], "id": "far", "population": 100, "prevalence": 0.5}
    cfg["regions"].append(far)
    for region, prevalence in zip(cfg["regions"], (0.02, 0.004)):
        region.update(population=1000, prevalence=prevalence)
    cfg["links"] = [{"origin": "src", "destination": "dst", "travelers": 10},
                    {"origin": "dst", "destination": "far", "travelers": 50},
                    {"origin": "far", "destination": "src", "travelers": 95}]
    return cfg


# 9 grid values over 12 days: 801 rows, 11 a pair, so 7-row chunks split
# pairs; one day (constants only); a one-value grid; a start level from
# which some schedules run away; strings like a JSON table's place
SCENARIOS = {
    "pairs": quadratic(horizon=12, r_grid_step=0.25),
    "one_day": quadratic(horizon=1, r_grid_step=0.1, target_cases=60.0),
    "one_value": quadratic(horizon=9, r_grid_step=3.0),
    "runaway": {**quadratic(horizon=20, r_grid_step=0.5, target_cases=1e5),
                "regions": [{**quadratic()["regions"][0], "domestic_cases": 1e6}]},
    "tricky": tricky(),
    "three_links": three_links(),
}
# Monte Carlo trials of import-dist, past one block of draws
MC_TRIALS = {"three_links": 5000}
SCHEDULE_SCENARIOS = sorted(set(SCENARIOS) - {"three_links"})
# (command, scenario, workers, format): compare-schedules and import-dist
# in both formats, and the simulate JSON
STREAMED = (
    [pytest.param("compare-schedules", name, workers, "csv", id=f"{name}-{workers}")
     for name in SCHEDULE_SCENARIOS for workers in (1, 2, 3)]
    + [pytest.param("import-dist", name, workers, "csv", id=f"import-dist-{name}-{workers}")
       for name in ("three_links",) for workers in (1, 2, 3)]
    + [pytest.param(command, name, workers, "json", id=f"{command}-{name}-{workers}-json")
       for command, names in (("compare-schedules", SCHEDULE_SCENARIOS),
                              ("simulate", ("runaway", "tricky")),
                              ("import-dist", ("tricky", "three_links")))
       for name in names for workers in (1, 2, 3)])


@pytest.mark.parametrize("command, name, workers, fmt", STREAMED)
def test_streamed_report_same_bytes(command, name, workers, fmt, tmp_path, monkeypatch):
    cfg, trials = SCENARIOS[name], MC_TRIALS.get(name, 0)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(cli, "_workers", lambda n_chunks: workers)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--format", fmt,
                     *(("--mc-trials", str(trials)) if trials else ())]) == 0
    reference = tmp_path / f"reference.{fmt}"
    if fmt == "json":
        want = reference_json(reference, command, cfg, trials)
    elif command == "import-dist":
        want = reference_import_csv(reference, cfg, trials)
    else:
        want = reference_compare_csv(reference, cfg)
    got = out / f"{command.replace('-', '_')}.{fmt}"
    assert got.read_bytes() == want.read_bytes()
    assert_no_child_left()


def reference_least(totals, mask):
    """(least total, first row holding it) by one argmin over every row."""
    idx = np.flatnonzero(mask)
    if not idx.shape[0]:
        return math.inf, -1
    first = int(idx[np.argmin(totals[idx])])
    return float(totals[first]), first


def assert_blockwise_summary(rows, cuts):
    """``summarize`` of ``least`` over the ranges ``cuts`` split the rows
    into equals the verdicts of one argmin over every row."""
    n = rows.total_cost.shape[0]
    bounds = [0, *sorted(set(cuts)), n]
    parts = [ScheduleRows(*(col[lo:hi] for col in rows)).least(lo)
             for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    feasible = rows.feasible
    want = [reference_least(rows.total_cost, mask) for mask in (
        feasible, feasible & ~rows.contains_growth, feasible & rows.contains_growth,
        feasible & rows.relax_then_tighten)]
    if want[0][1] < 0:
        with pytest.raises(NumericalFailure):
            summarize(parts)
        return
    got = summarize(parts)
    assert (got.best_cost, got.best_index) == want[0]
    assert [got.best_monotone_index, got.cheapest_growth_index,
            got.cheapest_relax_then_tighten_index] == [w[1] for w in want[1:]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 40))
def test_ties_and_inf_across_block_boundaries(data, n):
    # totals from three values tie often; a mask may hold inf totals only
    def pick(values):
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

    totals = pick(st.sampled_from([0.0, 1.0, math.inf]))
    flags = [pick(st.booleans()) for _ in range(3)]
    codes = np.zeros(n, np.int16)
    rows = ScheduleRows(codes, codes, codes.astype(np.int32), totals, totals, totals,
                        flags[0], ~flags[0], flags[1], flags[2])
    assert_blockwise_summary(rows, data.draw(st.lists(st.integers(1, n), max_size=6)))


# all daily costs zero: every total ties; an outbreak power past float
# range: every total is inf; the quadratic fixture curves
_CURVES = {
    "zero": CostCurveSet(TransmissionCost(0.0), BorderCost(1.0, 1.0), OutbreakCost(0.0)),
    "inf": CostCurveSet(TransmissionCost(1.0), BorderCost(1.0, 1.0),
                        OutbreakCost(1.0, 60.0)),
    "quadratic": quadratic_set(),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), curves=st.sampled_from(sorted(_CURVES)),
       horizon=st.integers(1, 8), r_step=st.sampled_from([0.3, 0.5, 0.7, 2.5]),
       x0=st.sampled_from([0.0, 50.0, 1e6]), share=st.floats(0.0, 1.0))
def test_scan_summary_over_blocks(data, curves, horizon, r_step, x0, share):
    params = DynamicsParams()
    reachable = x0 * params.r_min**horizon
    scan = ScheduleScan(x0, reachable + share * (x0 - reachable), horizon, _CURVES[curves],
                        params, r_step)
    rows = scan.rows(0, scan.n)
    cuts = data.draw(st.lists(st.integers(1, scan.n), max_size=5))
    assert_blockwise_summary(rows, cuts)
    # the rows of any range are those of the whole table, bit for bit
    lo = data.draw(st.integers(0, scan.n - 1))
    hi = data.draw(st.integers(lo + 1, scan.n))
    for got, want in zip(scan.rows(lo, hi), rows):
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want[lo:hi].view(np.uint8))


def command_peak(tmp_path, fmt="csv", **dynamics):
    """tracemalloc peak of this process over one compare-schedules run."""
    path = write_config(tmp_path, quadratic(**dynamics))
    tracemalloc.start()
    try:
        assert cli.main(["compare-schedules", "--config", path,
                         "--out", str(tmp_path / "out"), "--format", fmt]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_command_memory_does_not_grow_with_schedules(tmp_path):
    # CSV: 96,801 and 382,401 schedules over 60 days; the whole table of
    # the larger is 13.8 MB at 36 bytes a schedule. JSON, ten times slower
    # to format: 11,521 and 45,441 schedules over 8 days; its rows held
    # whole as Python objects peaked at 37 and 145 MB
    for fmt, horizon in (("csv", 60), ("json", 8)):
        small = command_peak(tmp_path, fmt, horizon=horizon, r_grid_step=0.05)
        large = command_peak(tmp_path, fmt, horizon=horizon, r_grid_step=0.025)
        assert large < 1.5 * small, f"{fmt}: {small / 1e6:.2f} MB, then {large / 1e6:.2f} MB"
    assert_no_child_left()


def test_grid_longer_than_a_chunk_is_not_held_as_cells(tmp_path):
    # 200,001 one-day schedules, one a grid value: the scan holds about
    # 33 bytes a schedule; the grid's cells, formatted once, would add
    # about 87 more
    n = 200_001
    peak = command_peak(tmp_path, horizon=1, r_grid_step=1e-5, target_cases=60.0)
    assert peak < 60 * n, f"{peak / n:.1f} bytes a schedule"


def unreachable_by_any_schedule():
    # every schedule starts above the runaway level, so none is feasible,
    # though R = r_min reaches the target
    cfg = quadratic(horizon=10, r_grid_step=0.05, target_cases=2e12 * 0.5**10)
    cfg["regions"][0]["domestic_cases"] = 2e12
    return cfg


@pytest.mark.parametrize("workers, fmt", [
    pytest.param(workers, fmt, id=f"{workers}" + ("-json" if fmt == "json" else ""))
    for fmt in ("csv", "json") for workers in (1, 2)])
def test_no_feasible_schedule_writes_no_report(tmp_path, monkeypatch, capfd, workers, fmt):
    monkeypatch.setattr(cli, "_workers", lambda n_chunks: workers)
    path = write_config(tmp_path, unreachable_by_any_schedule())
    assert cli.main(["compare-schedules", "--config", path,
                     "--out", str(tmp_path / "out"), "--format", fmt]) == 2
    assert capfd.readouterr().err == ("numerical failure: no enumerated schedule "
                                      "reaches the target\n")
    # nor any spooled row: the output directory is empty
    assert list((tmp_path / "out").iterdir()) == []
    assert_no_child_left()


@pytest.mark.parametrize("step, fmt", [
    pytest.param(step, fmt, id=step + ("-json" if fmt == "json" else ""))
    for fmt in ("csv", "json") for step in ("rows", "format")])
def test_child_failing_at_either_step_is_invariant_violation(tmp_path, monkeypatch,
                                                             capfd, step, fmt):
    parent = os.getpid()
    if step == "rows":
        rows = ScheduleScan.rows

        def failing(self, lo, hi):
            if os.getpid() != parent:
                raise ValueError("rows failed")
            return rows(self, lo, hi)

        monkeypatch.setattr(ScheduleScan, "rows", failing)
    else:
        formatter = "_chunk_text" if fmt == "csv" else "_json_chunk"
        format_chunk = getattr(cli, formatter)

        def failing(*args):
            if os.getpid() != parent:
                raise ValueError("formatting failed")
            return format_chunk(*args)

        monkeypatch.setattr(cli, formatter, failing)
    monkeypatch.setattr(cli, "_workers", lambda n_chunks: 2)
    # the fixture's 12,201 schedules: 3 chunks, one in the child
    out = tmp_path / "out"
    assert cli.main(["compare-schedules", "--config",
                     str(fixture_path("one_region_quadratic")), "--out", str(out),
                     "--format", fmt]) == 3
    err = capfd.readouterr().err
    assert err.startswith("invariant violation: CSV formatter process ")
    assert err.count("\n") == 1
    # the command stops before the report is opened
    assert list(out.iterdir()) == []
    assert_no_child_left()
