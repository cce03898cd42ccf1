"""Seeded scenario generators for the benchmark workloads.

Each workload is one *round*: a fixed list of jobs, each one ``epicost``
command on one scenario file. The seed draws every continuous parameter
(curve levels, populations, prevalences, start levels), while the sizes
that set the cost of a command (cooperative grid, traveller count, R-grid
step, horizon, pmf support) come from fixed tiers, one tier per slot of
the round. So two seeds give different inputs of the same size, and the
timings of two runs can be compared.
"""

import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("games", "schedules", "imports", "fixtures")

# report file written by each command at its default format
REPORT = {
    "validate": "validate.json",
    "import-dist": "import_dist.csv",
    "optimize": "optimize.json",
    "game": "game.json",
    "simulate": "simulate.csv",
    "compare-schedules": "compare_schedules.csv",
}

# the three transmission-curve families of the bundled fixtures
FAMILIES = ("quadratic", "steep", "shallow")

# an odd number of slots puts the median command in the middle of one slot
GAME_GRIDS = (30, 35, 40, 45, 50, 55, 60)
GAME_TRAVELERS = (10, 30, 100, 300, 700, 1200, 2000)

SCHEDULE_SIZES = ((0.05, 30), (0.05, 60), (0.04, 40), (0.025, 30), (0.025, 60))

# per import scenario: (prevalence tier, travellers from the 1e4, 1e5, 1e6 sources)
IMPORT_TIERS = (
    (1e-3, (100, 1_000, 3_000)),
    (3e-3, (300, 3_000, 10_000)),
    (0.01, (1_000, 10_000, 30_000)),
    (0.02, (2_000, 20_000, 60_000)),
    (0.05, (3_000, 30_000, 100_000)),
)
IMPORT_MC_TRIALS = 100_000

# named, not globbed, so that a new bundled fixture does not change the workload
FIXTURES = ("boundary_trio", "import_dist_small", "one_region_quadratic",
            "two_region_asymmetric", "two_region_symmetric",
            "two_region_virus_free")
FIXTURE_MC_TRIALS = 2_000


@dataclass(frozen=True)
class Job:
    """One command on one scenario file; ``name`` keys its output directory."""

    name: str
    command: str
    config: Path
    extra: tuple[str, ...] = ()

    def argv(self, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(self.config),
                "--out", str(out_dir), *self.extra]

    @property
    def report(self) -> str:
        return REPORT[self.command]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def curves(rng: random.Random, family: str) -> dict:
    """One region's cost curves; every draw passes the shape gate."""
    c0 = rng.uniform(0.5, 2.0)
    if family == "quadratic":
        transmission = {"c0": c0, "tti_slope": 0.0, "tti_capacity": 0.0,
                        "breakdown_jump": 0.0, "wide_slope": rng.uniform(0.5, 2.0),
                        "wide_exponent": rng.uniform(1.5, 2.5)}
    elif family == "steep":
        transmission = {"c0": c0, "tti_slope": rng.uniform(0.5, 2.0)}
    else:
        transmission = {"c0": c0, "tti_slope": rng.uniform(0.05, 0.2)}
    return {
        "import_multiplier": rng.uniform(1.0, 2.0),
        "transmission": transmission,
        "border": {"b0": rng.uniform(1.0, 4.0), "i_free": rng.uniform(2.0, 8.0),
                   "curvature": rng.uniform(1.0, 2.0)},
        "outbreak": {"per_case": rng.uniform(0.1, 1.0),
                     "exponent": rng.uniform(1.0, 1.5)},
    }


def _region(rng, name, family, population, prevalence, domestic):
    return {"id": name, "population": population, "prevalence": prevalence,
            "domestic_cases": domestic, "curves": curves(rng, family)}


def game_scenarios(rng: random.Random) -> list[dict]:
    out = []
    n = len(GAME_GRIDS)
    for i, grid in enumerate(GAME_GRIDS):
        regions = [
            _region(rng, name, FAMILIES[(i + j) % 3],
                    int(_log_uniform(rng, 1e5, 1e7)),
                    _log_uniform(rng, 1e-5, 3e-3), rng.uniform(0.0, 50.0))
            for j, name in enumerate(("A", "B"))]
        k_ab = max(10, round(GAME_TRAVELERS[i] * rng.uniform(0.9, 1.0)))
        k_ba = max(10, round(GAME_TRAVELERS[n - 1 - i] * rng.uniform(0.9, 1.0)))
        out.append({
            "regions": regions,
            "links": [{"origin": "A", "destination": "B", "travelers": k_ab},
                      {"origin": "B", "destination": "A", "travelers": k_ba}],
            "solver": {"coop_grid_points": grid},
        })
    return out


def schedule_scenarios(rng: random.Random) -> list[dict]:
    out = []
    for i, (step, horizon) in enumerate(SCHEDULE_SIZES):
        region = _region(rng, "home", FAMILIES[i % 3], 1_000_000, 0.0,
                         rng.uniform(20.0, 200.0))
        out.append({
            "regions": [region],
            "links": [],
            "dynamics": {"r0": 2.5, "r_min": 0.5,
                         "stringency_exponent": rng.uniform(0.8, 2.0),
                         "horizon": horizon, "region": "home",
                         "target_cases": rng.uniform(0.5, 5.0),
                         "r_grid_step": step},
        })
    return out


def import_scenarios(rng: random.Random, seed: int) -> list[dict]:
    out = []
    for i, (prevalence, travelers) in enumerate(IMPORT_TIERS):
        regions, links = [], []
        for j, k in enumerate(travelers):
            name = f"S{j}"
            # sizes vary little with the seed: the support length sets the cost
            population = int(10 ** (4 + j) * rng.uniform(1.0, 1.05))
            regions.append(_region(rng, name, FAMILIES[(i + j) % 3], population,
                                   prevalence * rng.uniform(0.97, 1.03), 0.0))
            links.append({"origin": name, "destination": "hub",
                          "travelers": round(k * rng.uniform(0.97, 1.0))})
        regions.append(_region(rng, "hub", FAMILIES[i % 3], 1_000_000, 0.0, 0.0))
        out.append({"regions": regions, "links": links, "solver": {"seed": seed % 2**32}})
    return out


def make_jobs(workload: str, seed: int, src: Path, directory: Path) -> list[Job]:
    """Write the workload's scenario files under ``directory``; return one round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:{workload}:{seed}")

    def write(name: str, scenario: dict) -> Path:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(scenario, indent=1, sort_keys=True) + "\n")
        return path

    if workload == "games":
        return [Job(f"game-{i}", "game", write(f"game-{i}", s))
                for i, s in enumerate(game_scenarios(rng))]
    if workload == "schedules":
        return [Job(f"schedules-{i}", "compare-schedules", write(f"schedules-{i}", s))
                for i, s in enumerate(schedule_scenarios(rng))]
    if workload == "imports":
        return [Job(f"imports-{i}", "import-dist", write(f"imports-{i}", s),
                    ("--mc-trials", str(IMPORT_MC_TRIALS)))
                for i, s in enumerate(import_scenarios(rng, seed))]

    jobs = []
    for fixture in FIXTURES:
        path = directory / f"{fixture}.json"
        shutil.copyfile(src / "epicost" / "fixtures" / f"{fixture}.json", path)
        scenario = json.loads(path.read_text())
        for command in REPORT:
            # the CLI rejects these by design: game needs two regions, import-dist a link
            if ((command == "game" and len(scenario["regions"]) != 2)
                    or (command == "import-dist" and not scenario.get("links"))):
                continue
            extra = (("--mc-trials", str(FIXTURE_MC_TRIALS), "--seed", str(seed % 2**32))
                     if command == "import-dist" else ())
            jobs.append(Job(f"{fixture}-{command}", command, path, extra))
    return jobs
