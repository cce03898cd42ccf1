"""The exit-code contract under every bundled fixture with one leaf replaced.

Each leaf of each fixture (a number, string, bool, null, empty list or
object) is set in turn to each of ``VALUES``. Every such scenario must
either parse or raise ``ConfigError``; a fixed sample of them runs every
command in both formats through ``cli.main`` in this process, under an
alarm so that a hang fails the test. A run must exit 0, 1, 2 or 3 with no
exception escaping and no warning, and write to stderr only one-line
``config error:``, ``numerical failure:`` or ``invariant violation:``
diagnostics.
"""

import contextlib
import io
import json
import signal
import warnings

import pytest

from epicost import cli
from epicost.config import parse_config
from epicost.errors import ConfigError
from epicost.fixtures import SCENARIOS, fixture_path

VALUES = (0, -1, 1e300, 1e-300, 2**63, 0.5, 1, 3, True, "x", None, [], {})
DIAGNOSTICS = ("config error: ", "numerical failure: ", "invariant violation: ")
# seconds a command may run before it counts as hung; the slowest sampled
# run (compare-schedules --format json) takes about 0.4 s
ALARM_SECONDS = 20
# cli.main runs per command and format, out of 4,121 scenarios: a
# compare-schedules run that exits 0 takes about 40 ms in CSV and 350 ms
# in JSON, the others a few ms, so the samples run in about 5 s
SAMPLES = {"compare-schedules": {"csv": 80, "json": 20}}
DEFAULT_SAMPLES = 150


def leaves(obj, path=()):
    """The path of every value in ``obj`` that is not a non-empty list or object."""
    if not (isinstance(obj, (dict, list)) and obj):
        yield path
        return
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield from leaves(value, (*path, key))


def replaced(name, path, value):
    """Fixture ``name`` with the value at ``path`` replaced."""
    raw = json.loads(FIXTURES[name])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


FIXTURES = {name: fixture_path(name).read_text() for name in SCENARIOS}
# (fixture, path, value) for every fixture, leaf and value
CASES = [(name, path, value) for name in SCENARIOS
         for path in leaves(json.loads(FIXTURES[name])) for value in VALUES]


class Hang(Exception):
    pass


def _alarm(signum, frame):
    raise Hang(f"still running after {ALARM_SECONDS} s")


def test_every_replaced_leaf_parses_or_is_a_config_error():
    failures = []
    for name, path, value in CASES:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                parse_config(replaced(name, path, value))
        except ConfigError:
            pass
        except Exception as exc:
            failures.append(f"{name} {path}={value!r}: {exc!r}")
    assert not failures, "\n".join(failures[:20])


def run_main(argv) -> tuple[int, str]:
    """``cli.main(argv)`` under the alarm, warnings as errors; exit code and stderr."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_SECONDS)
    try:
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_commands_keep_the_exit_code_contract(command, fmt, tmp_path):
    count = SAMPLES.get(command, {}).get(fmt, DEFAULT_SAMPLES)
    # a different spread of fixtures, leaves and values for each command
    start = cli.COMMANDS.index(command) * 2 + (fmt == "json")
    config = tmp_path / "scenario.json"
    failures = []
    for name, path, value in CASES[start::len(CASES) // count][:count]:
        config.write_text(json.dumps(replaced(name, path, value)))
        try:
            code, err = run_main([command, "--config", str(config),
                                  "--out", str(tmp_path / "out"), "--format", fmt])
        except Exception as exc:
            failures.append(f"{name} {path}={value!r}: {exc!r}")
            continue
        lines = err.splitlines()
        if (code not in (0, 1, 2, 3) or (err and not err.endswith("\n"))
                or not all(line.startswith(DIAGNOSTICS) for line in lines)
                or (code == 0 and err)):
            failures.append(f"{name} {path}={value!r}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures[:20])
