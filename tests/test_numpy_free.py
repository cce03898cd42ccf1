"""The solver commands and ``simulate`` run without numpy, ``dataclasses``
or ``inspect``.

``game``, ``optimize`` and ``validate`` use no table: their optimizer grid
and shape gate are scalar code, and numpy is imported only inside the
functions that make arrays. ``simulate`` steps and costs its days over
Python floats with the curves' scalar ``cost`` and writes ``array('d')``
columns. So these commands never load numpy, which saves most of their
start-up, and the solvers' results hold Python floats, not numpy
scalars. Nor do they load ``epicost._kernels``, the schedule scan's
module, which imports numpy when it is imported. The package's records are plain classes (``epicost._record``),
so neither ``dataclasses`` nor the ``inspect`` it imports is loaded.
A report written by one process loads none of the writer's fork code
(``_forkwrite``, and the ``pickle`` and ``signal`` it imports).
"""

import json
import numbers
import subprocess
import sys

import pytest

from epicost.config import load_config
from epicost.fixtures import SCENARIOS, fixture_path
from epicost._record import Record
from epicost.game import GameState, best_response, solve_game
from epicost.optimize import minimize_over_imports

SOLVER_COMMANDS = ("game", "optimize", "validate", "simulate")

# one process: import epicost, run every command above on every bundled
# fixture that accepts it, in both formats, then report what was loaded
_GUARD = """
import json, sys, tempfile
from epicost import cli
from epicost.fixtures import fixture_path

runs = []
with tempfile.TemporaryDirectory() as out:
    for name, commands in json.loads(sys.argv[1]).items():
        for command in commands:
            for fmt in ("json", "csv"):
                code = cli.main([command, "--config", str(fixture_path(name)),
                                 "--out", out, "--format", fmt])
                runs.append([name, command, fmt, code])
print(json.dumps({"runs": runs, **{name: name in sys.modules for name in (
    "numpy", "epicost._kernels", "dataclasses", "inspect", "epicost._forkwrite", "pickle",
    "signal")}}))
"""

# one process: a compare-schedules report of three chunks, written by this
# process alone (numpy itself loads pickle)
_ONE_WRITER = """
import sys, tempfile
from epicost import cli
from epicost.fixtures import fixture_path

assert cli._workers(3) == 1
with tempfile.TemporaryDirectory() as out:
    code = cli.main(["compare-schedules", "--config",
                     str(fixture_path("one_region_quadratic")), "--out", out])
print(code, "epicost._forkwrite" in sys.modules, "signal" in sys.modules)
"""


def accepted_commands() -> dict:
    """The commands of ``SOLVER_COMMANDS`` each bundled fixture accepts:
    ``game`` needs exactly two regions."""
    out = {}
    for name in SCENARIOS:
        regions = json.loads(fixture_path(name).read_text())["regions"]
        out[name] = [c for c in SOLVER_COMMANDS if c != "game" or len(regions) == 2]
    return out


@pytest.fixture(scope="module")
def guarded():
    """The commands each fixture accepts, and what ``_GUARD`` saw."""
    commands = accepted_commands()
    done = subprocess.run([sys.executable, "-c", _GUARD, json.dumps(commands)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return commands, json.loads(done.stdout.splitlines()[-1])


def test_solver_commands_never_import_numpy(guarded):
    commands, result = guarded
    assert [run[3] for run in result["runs"]] == [0] * len(result["runs"])
    assert len(result["runs"]) == 2 * sum(map(len, commands.values()))
    assert result["numpy"] is False
    assert result["epicost._kernels"] is False
    assert result["dataclasses"] is False
    assert result["inspect"] is False


def test_one_process_report_loads_no_fork_code(guarded):
    _, result = guarded
    assert result["epicost._forkwrite"] is False
    assert result["pickle"] is False
    assert result["signal"] is False
    done = subprocess.run([sys.executable, "-c", _ONE_WRITER],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "0 False False"


def numeric_fields(obj, path: str):
    """``(path, value)`` of every number in a result, bools left out, and
    the solved ``state`` (the inputs) too."""
    if isinstance(obj, Record):
        for name in obj._fields:
            if name != "state":
                yield from numeric_fields(getattr(obj, name), f"{path}.{name}")
    elif isinstance(obj, tuple):
        for i, value in enumerate(obj):
            yield from numeric_fields(value, f"{path}[{i}]")
    elif isinstance(obj, numbers.Number) and not isinstance(obj, bool):
        yield path, obj


def solved(name: str) -> dict:
    """Every optimizer and game result on a bundled fixture, by path."""
    cfg = load_config(fixture_path(name))
    solver = {"grid_points": cfg.solver.grid_points, "foc_tol": cfg.solver.foc_tol}
    results = {}
    for region in cfg.regions:
        results[f"{region.name}.imports"] = minimize_over_imports(region.curves, **solver)
        link = cfg.inbound_link(region.name)
        if link is not None:
            results[f"{region.name}.screening"] = best_response(
                region, cfg.region(link.origin), link, **solver)
    if len(cfg.regions) == 2:
        results["game"] = solve_game(GameState(tuple(cfg.regions), cfg.links),
                                     max_iters=cfg.solver.max_iterations,
                                     tol=cfg.solver.nash_tol, **solver)
    return results


def wrong_types(results: dict) -> list:
    """``(path, type name)`` of every number in ``results`` that is not a
    Python ``float`` (an ``int`` for ``iterations``)."""
    fields = [pair for path, result in results.items()
              for pair in numeric_fields(result, path)]
    assert fields
    return [(path, type(v).__name__) for path, v in fields
            if type(v) is not (int if path.endswith(".iterations") else float)]


@pytest.mark.parametrize("name", SCENARIOS)
def test_result_fields_are_python_floats(name):
    assert wrong_types(solved(name)) == []


def test_a_numpy_scalar_deep_in_a_result_is_flagged():
    # the walk reaches a cost inside a decision inside a tuple inside the
    # game's records, and tells a numpy float (a float subclass) from a float
    import numpy as np

    results = solved("two_region_symmetric")
    game = results["game"]
    first, second = game.nash.outcome.decisions
    first = first._replace(costs=first.costs._replace(border=np.float64(first.costs.border)))
    outcome = game.nash.outcome._replace(decisions=(first, second))
    results["game"] = game._replace(nash=game.nash._replace(outcome=outcome))
    assert wrong_types(results) == [("game.nash.outcome.decisions[0].costs.border", "float64")]
