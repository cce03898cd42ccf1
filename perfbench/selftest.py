"""Tests of the benchmark's own checks and tracing.

Each check must accept a report the program wrote and reject the same
report with one deliberate corruption, so that none of them passes
vacuously. Run from the repository root:

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks      # noqa: E402
import layers      # noqa: E402
import run         # noqa: E402
import scenarios   # noqa: E402
from epicost import cli   # noqa: E402

SEED = 7


def produce(job: scenarios.Job, out: Path) -> Path:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(job.argv(out))
    assert rc == 0, job
    return out / job.report


class ChecksTest(unittest.TestCase):
    """Checks accept the program's reports and reject corrupted copies."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        cls.jobs = {}
        for workload in ("games", "imports", "fixtures"):
            for job in scenarios.make_jobs(workload, SEED, SRC, cls.tmp / workload):
                cls.jobs[job.name] = job
        # a schedules scenario on a coarse grid, so the test stays fast
        small = scenarios.schedule_scenarios(random.Random(SEED))[0]
        small["dynamics"].update(r_grid_step=0.25, horizon=12)
        path = cls.tmp / "schedules.json"
        path.write_text(json.dumps(small))
        cls.jobs["schedules"] = scenarios.Job("schedules", "compare-schedules", path)
        cls.reports = {name: produce(job, cls.tmp / "out" / name)
                       for name, job in cls.jobs.items()
                       if name in ("game-0", "imports-1", "schedules",
                                   "boundary_trio-optimize",
                                   "one_region_quadratic-optimize",
                                   "two_region_symmetric-simulate",
                                   "two_region_symmetric-validate")}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def problems(self, name, path=None):
        job = self.jobs[name]
        return checks.check(job.command, path or self.reports[name],
                            json.loads(job.config.read_text()), SEED, job.extra)

    def corrupt_json(self, name, edit):
        report = json.loads(self.reports[name].read_text())
        edit(report)
        path = self.tmp / f"bad-{name}.json"
        path.write_text(json.dumps(report))
        return self.problems(name, path)

    def corrupt_csv(self, name, edit):
        comments, header, rows = checks.read_csv(self.reports[name])
        edit(comments, header, rows)
        path = self.tmp / f"bad-{name}.csv"
        path.write_text("\n".join([*comments, ",".join(header),
                                   *(",".join(r) for r in rows)]) + "\n")
        return self.problems(name, path)

    def test_reports_pass(self):
        for name in self.reports:
            with self.subTest(name):
                self.assertEqual(self.problems(name), [])

    # -- games --------------------------------------------------------------

    def test_game_cooperative_above_nash(self):
        def edit(r):
            r["cooperative"]["total"] = r["nash"]["total"] + 1.0
        self.assertTrue(self.corrupt_json("game-0", edit))

    def test_game_gap(self):
        def edit(r):
            r["gap"] *= 1.001
        self.assertTrue(self.corrupt_json("game-0", edit))

    def test_game_import_threat(self):
        def edit(r):
            d = r["nash"]["regions"]["B"]
            d["import_threat"] *= 1 + 1e-6
        self.assertTrue(self.corrupt_json("game-0", edit))

    def test_game_cooperative_cases(self):
        def edit(r):
            r["cooperative"]["regions"]["A"]["domestic_cases"] = 1e-6
        self.assertTrue(self.corrupt_json("game-0", edit))

    def test_game_nash_above_grid_minimum(self):
        def edit(r):
            # consistent components, so only the best-response bound can object
            d = r["nash"]["regions"]["A"]
            d["costs"]["transmission"] += 0.01
            for key in ("total", "net_total"):
                d["costs"][key] += 0.01
            d["objective"] += 0.01
            r["nash"]["total"] += 0.01
            r["gap"] += 0.01
            r["ratio"] = r["nash"]["total"] / r["cooperative"]["total"]
        found = self.corrupt_json("game-0", edit)
        self.assertTrue(any("dense-grid" in p for p in found), found)

    def test_game_components(self):
        def edit(r):
            r["nash"]["regions"]["B"]["costs"]["total"] += 1e-3
        self.assertTrue(self.corrupt_json("game-0", edit))

    # -- schedules ----------------------------------------------------------

    def test_schedules_wrong_best_index(self):
        def edit(comments, header, rows):
            col = {h: i for i, h in enumerate(header)}
            summary = json.loads(comments[1][len("# summary: "):])
            feasible = [i for i, r in enumerate(rows) if r[col["feasible"]] == "true"]
            summary["best_index"] = max(feasible, key=lambda i: float(rows[i][col["total_cost"]]))
            comments[1] = "# summary: " + json.dumps(summary)
        self.assertTrue(self.corrupt_csv("schedules", edit))

    def test_schedules_feasible_flag(self):
        def edit(comments, header, rows):
            col = header.index("feasible")
            rows[-1][col] = "false" if rows[-1][col] == "true" else "true"
        self.assertTrue(self.corrupt_csv("schedules", edit))

    def test_schedules_cost(self):
        def edit(comments, header, rows):
            summary = json.loads(comments[1][len("# summary: "):])
            row = rows[summary["best_index"]]
            col = header.index("total_cost")
            row[col] = repr(float(row[col]) * (1 + 1e-6))
        self.assertTrue(self.corrupt_csv("schedules", edit))

    def test_schedules_missing_row(self):
        self.assertTrue(self.corrupt_csv("schedules", lambda c, h, rows: rows.pop()))

    # -- imports ------------------------------------------------------------

    def test_imports_pmf_row(self):
        def edit(comments, header, rows):
            col = header.index("pmf")
            j = max(range(len(rows)), key=lambda i: float(rows[i][col]))
            rows[j][col] = repr(float(rows[j][col]) * (1 + 1e-6))
        self.assertTrue(self.corrupt_csv("imports-1", edit))

    def test_imports_tail_sum(self):
        def edit(comments, header, rows):
            col = header.index("tail_sum")
            rows[3][col] = repr(float(rows[3][col]) + 1e-6)
        self.assertTrue(self.corrupt_csv("imports-1", edit))

    def test_imports_monte_carlo(self):
        def edit(comments, header, rows):
            col = header.index("mc_freq")
            table = [r for r in rows if r[:2] == rows[0][:2]]
            # move 5% of the draws from the most frequent count to the highest one
            j = max(range(len(table)), key=lambda i: float(table[i][col]))
            table[j][col] = repr(float(table[j][col]) - 0.05)
            table[-1][col] = repr(float(table[-1][col]) + 0.05)
        found = self.corrupt_csv("imports-1", edit)
        self.assertTrue(any("DKW" in p for p in found), found)

    # -- fixtures -----------------------------------------------------------

    def test_optimize_classification(self):
        def edit(r):
            r["regions"]["steep"]["screening"]["classification"] = "interior"
        self.assertTrue(self.corrupt_json("boundary_trio-optimize", edit))

    def test_optimize_interior_argument(self):
        def edit(r):
            r["regions"]["home"]["imports"]["argument"] = 0.2501
        self.assertTrue(self.corrupt_json("one_region_quadratic-optimize", edit))

    def test_simulate_cases(self):
        def edit(comments, header, rows):
            col = header.index("cases")
            rows[5][col] = repr(float(rows[5][col]) * 1.001)
        self.assertTrue(self.corrupt_csv("two_region_symmetric-simulate", edit))

    def test_validate_all_pass(self):
        def edit(r):
            r["all_pass"] = False
        self.assertTrue(self.corrupt_json("two_region_symmetric-validate", edit))


class RepeatTest(unittest.TestCase):
    """A repeat whose report differs from the first one is a problem."""

    def test_differing_repeat(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = run.Run("fixtures", SEED)
            bench.out = Path(tmp)
            job = scenarios.Job("j", "validate", Path(tmp) / "unused.json")
            for text in ("{}", "{ }"):
                out = bench.out_dir(job)
                out.mkdir(parents=True)
                (out / job.report).write_text(text)
                bench.record(job, out, 0)
            self.assertEqual(bench.attempted, 2)
            self.assertEqual(len(bench.problems), 1)


class LayersTest(unittest.TestCase):
    """Tracing counts work and leaves the modules as it found them."""

    def test_wrap_and_restore(self):
        from epicost import _kernels, game, importation
        originals = (game.expected_imports, importation.expected_imports,
                     _kernels.policy_cost_grid)
        with tempfile.TemporaryDirectory() as tmp:
            job = scenarios.make_jobs("games", SEED, SRC, Path(tmp) / "scenarios")[0]
            grid = json.loads(job.config.read_text())["solver"]["coop_grid_points"]
            tracer = layers.Tracer()
            wrapped = layers.Wrapped(tracer.wrap)
            try:
                self.assertIsNot(game.expected_imports, originals[0])
                produce(job, Path(tmp) / "out")
            finally:
                wrapped.uninstall()
        self.assertEqual((game.expected_imports, importation.expected_imports,
                          _kernels.policy_cost_grid), originals)
        found = layers.counts(tracer)
        self.assertEqual(found["game.coop_sweep_cells"], 2 * grid ** 3)
        self.assertEqual(tracer.calls["game.solve_game"], 1)
        self.assertGreater(found["importation.expected_imports_calls"], 0)
        self.assertGreater(found["optimize.golden_section_evals"],
                           found["optimize.golden_section_calls"])
        times = layers.times(tracer)
        self.assertGreaterEqual(times["game.solve_game_ms"],
                                times["game.cooperative_optimum_ms"])


if __name__ == "__main__":
    unittest.main()
