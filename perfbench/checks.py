"""Output checks for every command the benchmark runs.

Each check reads one report and the scenario it came from and returns a
list of problems (empty when the report is correct). Expected values come
from computations made here, apart from the program (closed forms, plain
Python re-runs of the recurrence, dense numpy grids, ``scipy.stats``), or
from properties the method must have; never from a stored report.

Reports round floats to 12 significant digits (relative error below
5e-13), so comparisons use the tolerances below, each well above that.
The two properties the model provably lacks (acceptance criteria 3 and 9,
e.g. ``monotone_dominates``) are not asserted.
"""

import csv
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.stats import hypergeom

# a reported float against an independent double-precision recomputation
REL_TOL = 1e-9
# a minimum reported by the optimizer against a dense-grid or analytic one
OPT_TOL = 1e-9
# an argmin against its closed form (golden section stops at 1e-8 widths)
ARG_TOL = 1e-6
# pmf against scipy.stats.hypergeom, whose own error reaches 6e-8 in the tails
PMF_REL_TOL, PMF_ABS_TOL = 1e-7, 1e-14
# sums of up to 1e5 reported probabilities
SUM_TOL = 1e-9
# failure probability of the Dvoretzky-Kiefer-Wolfowitz band on the MC CDF
DKW_DELTA = 1e-6
# dense screening grid for the Nash best-response bound
F_GRID = 100_001
# schedule rows re-run in plain Python besides the best rows
SAMPLE_ROWS = 100
RUNAWAY_CASES = 1e12


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _num(v) -> float:
    return float(v)  # JSON writes non-finite floats as the strings "inf"/"nan"


def read_csv(path):
    """Split a CSV report into (comment lines, header, rows)."""
    with open(path, newline="") as fh:
        lines = iter(fh)
        comments = []
        for line in lines:
            if not line.startswith("#"):
                header = next(csv.reader([line]))
                break
            comments.append(line.rstrip("\n"))
        rows = list(csv.reader(lines))
    return comments, header, rows


def _comment(comments, key):
    for line in comments:
        if line.startswith(f"# {key}: "):
            return line[len(f"# {key}: "):]
    return None


# -- the model, written out apart from the program ---------------------------

def transmission(tc: dict, x):
    """Suppression cost c_T(x) of a transmission block, scalar or array."""
    c0 = tc["c0"]
    slope = tc.get("tti_slope", 0.0)
    cap = tc.get("tti_capacity", math.inf)
    cap = math.inf if cap in (None, "inf") else cap
    jump = tc.get("breakdown_jump", 0.0)
    wide = tc.get("wide_slope", 0.0)
    gamma = tc.get("wide_exponent", 1.0)
    x = np.asarray(x, dtype=float)
    out = c0 + slope * x
    if math.isfinite(cap):
        wide_cost = c0 + slope * cap + jump + wide * np.maximum(x - cap, 0.0) ** gamma
        out = np.where(x <= cap, out, wide_cost)
    return out if out.ndim else float(out)


def outbreak(oc: dict, x: float) -> float:
    return oc.get("per_case", 0.0) * x ** oc.get("exponent", 1.0)


def border(bc: dict, imports: float) -> float:
    return bc["b0"] * (1.0 - imports / bc["i_free"]) ** bc.get("curvature", 1.0)


def import_threat(k: int, prevalence: float) -> float:
    """Expected daily imports of the limit form, closed form k L (1+L)^(k-1)."""
    if k == 0 or prevalence == 0.0:
        return 0.0
    return k * prevalence * (1.0 + prevalence) ** (k - 1)


def _regions(scenario):
    return {r["id"]: r for r in scenario["regions"]}


def _inbound(scenario, name):
    for link in scenario.get("links", []):
        if link["destination"] == name:
            return link
    return None


def _threat_into(scenario, name):
    link = _inbound(scenario, name)
    if link is None:
        return None
    origin = _regions(scenario)[link["origin"]]
    return import_threat(link["travelers"], origin["prevalence"])


def _family(tc):
    """'linear' or 'quadratic' when the optimum has a closed form, else None."""
    cap = tc.get("tti_capacity", math.inf)
    if cap in (None, "inf", math.inf) or tc.get("wide_slope", 0.0) == 0.0:
        return "linear"
    if (cap == 0.0 and tc.get("wide_exponent", 1.0) == 2.0
            and tc.get("breakdown_jump", 0.0) == 0.0):
        return "quadratic"
    return None


def _axis_optimum(tc, alpha, scale, b0, width):
    """Closed-form minimizer of c_T(alpha*scale*t) + b0*(1 - t/width) on [0, width].

    Returns (classification, argument) or None when there is no closed form.
    """
    family = _family(tc)
    if family == "linear":
        m = alpha * scale * tc.get("tti_slope", 0.0) - b0 / width
        if m > 1e-12:
            return "boundary-closed", 0.0
        if m < -1e-12:
            return "boundary-open", width
        return None
    if family == "quadratic":
        t = b0 / (2.0 * tc["wide_slope"] * (alpha * scale) ** 2 * width)
        if t >= width:
            return "boundary-open", width
        return "interior", t
    return None


# -- per-command checks -------------------------------------------------------

def _decision(where, d, curves, problems):
    """A policy decision: components add up and match the curves at (x, F, threat).

    Border cost is in link terms, b0 (1 - F)^curvature, zero at open borders.
    """
    c = d["costs"]
    t, b, o = _num(c["transmission"]), _num(c["border"]), _num(c["outbreak"])
    scale = abs(t) + abs(b) + abs(o)
    for key, want in (("total", t + b + o), ("net_total", t + b - o)):
        if not close(_num(c[key]), want, abs_tol=1e-12 * scale):
            problems.append(f"{where}: costs.{key} {c[key]} != components {want!r}")
    if not close(_num(d["objective"]), t + b, abs_tol=1e-12 * scale):
        problems.append(f"{where}: objective {d['objective']} != transmission + border")

    x, f = _num(d["domestic_cases"]), _num(d["screening"])
    threat = _num(d["import_threat"])
    load = x + curves.get("import_multiplier", 1.0) * threat * f
    bc = curves["border"]
    # inputs are rounded to 12 digits, and (1 - F) loses digits as F nears 1
    for key, want in (("transmission", transmission(curves["transmission"], load)),
                      ("border", bc["b0"] * (1.0 - f) ** bc.get("curvature", 1.0)),
                      ("outbreak", outbreak(curves.get("outbreak", {}), load))):
        if not close(_num(c[key]), want, abs_tol=1e-9 * scale):
            problems.append(f"{where}: costs.{key} {c[key]} != {want!r} from the curves")
    if not close(_num(d["imports"]), threat * f, abs_tol=1e-12):
        problems.append(f"{where}: imports {d['imports']} != threat x screening")


def check_game(report: dict, scenario: dict) -> list[str]:
    problems = []
    regions = _regions(scenario)
    nash, coop = report["nash"], report["cooperative"]
    n_total, c_total = _num(nash["total"]), _num(coop["total"])
    scale = abs(n_total) + abs(c_total)
    if c_total > n_total + OPT_TOL * scale:
        problems.append(f"cooperative total {c_total} exceeds Nash total {n_total}")
    if not close(_num(report["gap"]), n_total - c_total, abs_tol=1e-10 * scale):
        problems.append(f"gap {report['gap']} != Nash - cooperative {n_total - c_total!r}")
    if not close(_num(report["ratio"]), n_total / c_total):
        problems.append(f"ratio {report['ratio']} != Nash / cooperative")

    c0_sum = sum(r["curves"]["transmission"]["c0"] for r in regions.values())
    if c_total > c0_sum * (1.0 + OPT_TOL):
        problems.append(f"cooperative total {c_total} exceeds the zero-case cost {c0_sum!r}")
    for name, d in coop["regions"].items():
        if _num(d["domestic_cases"]) != 0.0:
            problems.append(f"cooperative {name}: domestic cases {d['domestic_cases']} != 0")

    for concept in ("nash", "cooperative"):
        totals = 0.0
        for name, d in report[concept]["regions"].items():
            _decision(f"{concept} {name}", d, regions[name]["curves"], problems)
            totals += _num(d["costs"]["total"])
        if not close(_num(report[concept]["total"]), totals):
            problems.append(f"{concept} total != sum of region totals {totals!r}")

    fs = np.linspace(0.0, 1.0, F_GRID)
    for name, d in nash["regions"].items():
        threat = _threat_into(scenario, name) or 0.0
        if not close(_num(d["import_threat"]), threat):
            problems.append(f"nash {name}: import_threat {d['import_threat']} "
                            f"!= k L (1+L)^(k-1) = {threat!r}")
        curves = regions[name]["curves"]
        alpha = curves.get("import_multiplier", 1.0)
        bc = curves["border"]
        grid = (transmission(curves["transmission"], alpha * threat * fs)
                + bc["b0"] * (1.0 - fs) ** bc.get("curvature", 1.0))
        bound = float(grid.min())
        if _num(d["objective"]) > bound + OPT_TOL * max(1.0, abs(bound)):
            problems.append(f"nash {name}: objective {d['objective']} above the "
                            f"dense-grid minimum {bound!r}")
    return problems


def check_optimize(report: dict, scenario: dict) -> list[str]:
    problems = []
    for name, region in _regions(scenario).items():
        entry = report["regions"][name]
        curves = region["curves"]
        tc, bc = curves["transmission"], curves["border"]
        alpha = curves.get("import_multiplier", 1.0)
        # the closed forms below hold for a linear border curve
        linear_border = bc.get("curvature", 1.0) == 1.0
        imp = entry["imports"]
        want = _axis_optimum(tc, alpha, 1.0, bc["b0"], bc["i_free"]) if linear_border else None
        if want is not None:
            kind, arg = want
            if imp["classification"] != kind or not close(_num(imp["argument"]), arg,
                                                          abs_tol=ARG_TOL):
                problems.append(f"{name}: imports optimum {imp['classification']} at "
                                f"{imp['argument']}, expected {kind} at {arg!r}")
            cost = transmission(tc, alpha * arg) + border(bc, arg)
            if not close(_num(imp["cost"]), cost, rel=OPT_TOL):
                problems.append(f"{name}: imports cost {imp['cost']} != {cost!r}")

        threat = _threat_into(scenario, name)
        scr = entry["screening"]
        if threat is None:
            if scr is not None:
                problems.append(f"{name}: screening reported without an inbound link")
            continue
        _decision(f"{name} screening", scr, curves, problems)
        if not linear_border:
            continue
        want = (("boundary-open", 1.0) if threat == 0.0
                else _axis_optimum(tc, alpha, threat, bc["b0"], 1.0))
        if want is not None:
            kind, arg = want
            if scr["classification"] != kind or not close(_num(scr["screening"]), arg,
                                                          abs_tol=ARG_TOL):
                problems.append(f"{name}: screening {scr['classification']} at "
                                f"{scr['screening']}, expected {kind} at {arg!r}")
    return problems


def check_validate(report: dict, scenario: dict) -> list[str]:
    problems = []
    if report.get("all_pass") is not True:
        problems.append("validate: all_pass is not true")
    for name in _regions(scenario):
        if report["regions"][name]["all_pass"] is not True:
            problems.append(f"validate: region {name} fails a shape check")
    return problems


def _dynamics(scenario):
    dyn = scenario.get("dynamics", {})
    regions = scenario["regions"]
    name = dyn.get("region") or regions[0]["id"]
    return dyn, _regions(scenario)[name]


def _daily_series(value, horizon):
    return list(value) if isinstance(value, list) else [float(value)] * horizon


def check_simulate(path, scenario: dict) -> list[str]:
    problems = []
    comments, header, rows = read_csv(path)
    dyn, region = _dynamics(scenario)
    horizon = dyn.get("horizon", 30)
    r0, r_min = dyn.get("r0", 2.5), dyn.get("r_min", 0.5)
    q = dyn.get("stringency_exponent", 1.0)
    rs = _daily_series(dyn.get("reproduction", 0.5), horizon)
    fs = _daily_series(dyn.get("screening", 1.0), horizon)
    curves = region["curves"]
    alpha = curves.get("import_multiplier", 1.0)
    threat = _threat_into(scenario, region["id"])
    if len(rows) != horizon:
        return [f"simulate: {len(rows)} rows for horizon {horizon}"]

    x, cumulative = float(region.get("domestic_cases", 0.0)), 0.0
    for t, row in enumerate(rows):
        day = dict(zip(header, row))
        imports = 0.0 if threat is None else threat * fs[t]
        g = ((r0 - rs[t]) / (r0 - r_min)) ** q
        ct = transmission(curves["transmission"], x) * g
        cb = 0.0 if threat is None else border(curves["border"], imports)
        co = outbreak(curves.get("outbreak", {}), x)
        cumulative += ct + cb + co
        want = {"cases": x, "cost_transmission": ct, "cost_border": cb,
                "cost_outbreak": co, "cost_total": ct + cb + co,
                "cumulative": cumulative}
        for key, value in want.items():
            if not close(float(day[key]), value, abs_tol=1e-12):
                problems.append(f"simulate day {t}: {key} {day[key]} != {value!r}")
        x = rs[t] * x + alpha * imports
    final = _comment(comments, "final_cases")
    if final is None or not close(float(final), x, abs_tol=1e-12):
        problems.append(f"simulate: final_cases {final} != {x!r}")
    return problems[:20]


def _schedule_rerun(curves, x0, r0, r_min, q, horizon, r1, r2, switch):
    tc, oc = curves["transmission"], curves.get("outbreak", {})
    x, total, peak = x0, 0.0, x0
    for t in range(horizon):
        r = r1 if t < switch else r2
        g = ((r0 - r) / (r0 - r_min)) ** q
        total += transmission(tc, x) * g + outbreak(oc, x)
        x = r * x
        peak = max(peak, x)
    return total, x, peak


def check_schedules(path, scenario: dict, seed: int) -> list[str]:
    problems = []
    comments, header, rows = read_csv(path)
    summary = json.loads(_comment(comments, "summary") or "{}")
    dyn, region = _dynamics(scenario)
    horizon = dyn.get("horizon", 30)
    r0, r_min = dyn.get("r0", 2.5), dyn.get("r_min", 0.5)
    step, q = dyn.get("r_grid_step", 0.1), dyn.get("stringency_exponent", 1.0)
    target = dyn.get("target_cases", 1.0)
    x0 = float(region.get("domestic_cases", 0.0))

    n_r = math.floor((r0 - r_min) / step + 1e-9) + 1
    n_want = n_r + n_r * (n_r - 1) * (horizon - 1)
    if summary.get("n_schedules") != n_want or len(rows) != n_want:
        return [f"schedules: n_schedules {summary.get('n_schedules')} with "
                f"{len(rows)} rows, expected {n_want}"]

    col = {name: i for i, name in enumerate(header)}
    i_cost, i_final = col["total_cost"], col["final_cases"]
    i_max, i_feas, i_run = col["max_cases"], col["feasible"], col["runaway"]
    best_cost, best_row = math.inf, -1
    for i, row in enumerate(rows):
        if int(row[col["index"]]) != i:
            problems.append(f"schedules row {i}: index {row[col['index']]}")
            break
        final, peak = float(row[i_final]), float(row[i_max])
        runaway, feasible = row[i_run] == "true", row[i_feas] == "true"
        # a value within report rounding of its threshold cannot be judged
        if not close(peak, RUNAWAY_CASES, rel=1e-11) and runaway != (peak > RUNAWAY_CASES):
            problems.append(f"schedules row {i}: runaway={runaway} at max_cases {peak}")
        if (not close(final, target, rel=1e-11)
                and feasible != (final <= target and not runaway)):
            problems.append(f"schedules row {i}: feasible={feasible} with final_cases "
                            f"{final}, target {target}, runaway={runaway}")
        if feasible and float(row[i_cost]) < best_cost:
            best_cost, best_row = float(row[i_cost]), i
        if len(problems) > 20:
            return problems

    best = summary.get("best_index")
    if best is None or not 0 <= best < n_want or rows[best][i_feas] != "true":
        problems.append(f"schedules: best_index {best} is not a feasible row")
    elif float(rows[best][i_cost]) > best_cost:
        problems.append(f"schedules: best_index {best} costs {rows[best][i_cost]}, "
                        f"row {best_row} is feasible at {best_cost!r}")
    elif not close(_num(summary.get("best_cost", "nan")), float(rows[best][i_cost])):
        problems.append(f"schedules: best_cost {summary.get('best_cost')} != row {best}")

    picked = {summary.get(k) for k in ("best_index", "best_monotone_index",
                                       "cheapest_growth_index",
                                       "cheapest_relax_then_tighten_index")}
    rng = random.Random(f"rows:{seed}:{path}")
    picked |= set(rng.sample(range(n_want), min(SAMPLE_ROWS, n_want)))
    curves = region["curves"]
    for i in sorted(j for j in picked if isinstance(j, int) and 0 <= j < n_want):
        row = rows[i]
        total, final, peak = _schedule_rerun(
            curves, x0, r0, r_min, q, horizon, float(row[col["r_first"]]),
            float(row[col["r_second"]]), int(row[col["switch_day"]]))
        for key, value in (("total_cost", total), ("final_cases", final),
                           ("max_cases", peak)):
            if not close(float(row[col[key]]), value):
                problems.append(f"schedules row {i}: {key} {row[col[key]]} != {value!r}")
    return problems[:20]


def check_import_dist(path, scenario: dict, trials: int) -> list[str]:
    problems = []
    _, header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    regions = _regions(scenario)
    by_link = {}
    for row in rows:
        by_link.setdefault((row[col["origin"]], row[col["destination"]]), []).append(row)
    links = scenario.get("links", [])
    if list(by_link) != [(ln["origin"], ln["destination"]) for ln in links]:
        return [f"import-dist: links {list(by_link)} differ from the scenario"]
    band = math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * trials)) if trials else None

    for link in links:
        where = f"import-dist {link['origin']}->{link['destination']}"
        table = by_link[(link["origin"], link["destination"])]
        origin = regions[link["origin"]]
        n, k = origin["population"], link["travelers"]
        big_k = round(origin["prevalence"] * n)
        nus = np.array([int(r[col["nu"]]) for r in table])
        lo, hi = max(0, k - (n - big_k)), min(k, big_k)
        if not np.array_equal(nus, np.arange(lo, hi + 1)):
            problems.append(f"{where}: support {nus[0]}..{nus[-1]}, expected {lo}..{hi}")
            continue
        pmf = np.array([float(r[col["pmf"]]) for r in table])
        exact = hypergeom.pmf(nus, n, big_k, k)
        bad = np.nonzero(np.abs(pmf - exact) > PMF_REL_TOL * exact + PMF_ABS_TOL)[0]
        if bad.size:
            j = bad[0]
            problems.append(f"{where}: pmf({nus[j]}) = {pmf[j]!r}, "
                            f"scipy gives {exact[j]!r} ({bad.size} rows differ)")
        if abs(pmf.sum() - 1.0) > SUM_TOL:
            problems.append(f"{where}: pmf sums to {pmf.sum()!r}")
        tails = np.array([float(r[col["tail_sum"]]) for r in table])
        running = np.cumsum(np.where(nus >= 1, pmf, 0.0))
        if np.abs(tails - running).max() > SUM_TOL:
            problems.append(f"{where}: tail_sum is not the running pmf sum from nu=1")
        if band is not None:
            freq = np.array([float(r[col["mc_freq"]]) for r in table])
            gap = np.abs(np.cumsum(freq) - np.cumsum(pmf)).max()
            if gap > band:
                problems.append(f"{where}: MC CDF is {gap:.4g} from the pmf CDF, "
                                f"beyond the DKW band {band:.4g}")
    return problems


def check(command: str, path, scenario: dict, seed: int, extra=()) -> list[str]:
    """Problems found in the report ``path`` of ``command`` on ``scenario``."""
    if command == "game":
        return check_game(json.loads(Path(path).read_text()), scenario)
    if command == "optimize":
        return check_optimize(json.loads(Path(path).read_text()), scenario)
    if command == "validate":
        return check_validate(json.loads(Path(path).read_text()), scenario)
    if command == "simulate":
        return check_simulate(path, scenario)
    if command == "compare-schedules":
        return check_schedules(path, scenario, seed)
    if command == "import-dist":
        extra = list(extra)
        trials = int(extra[extra.index("--mc-trials") + 1]) if "--mc-trials" in extra else 0
        return check_import_dist(path, scenario, trials)
    raise ValueError(f"no check for command {command!r}")
