"""Every function the benchmark's layer metrics wrap exists in ``epicost``.

``perfbench/layers.py`` finds its functions by label (``"module.name"``) at
run time; a label that no longer resolves leaves its metric at 0 without an
error. Its work counters read the wrapped call's arguments by name, so a
renamed or removed parameter makes the traced pass raise ``KeyError``.
These tests fail as soon as a refactor does either.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import FunctionType
from unittest.mock import MagicMock

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# wrapped by the benchmark but deleted from the library; their metrics
# (three kernels.batch_*, two kernels.policy_cost_grid_*) read 0 until the
# benchmark points them elsewhere
KNOWN_MISSING = {"_kernels.batch_autarky_costs", "_kernels.policy_cost_grid"}


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(label: str):
    module_name, name = label.split(".")
    return getattr(importlib.import_module(f"epicost.{module_name}"), name, None)


def resolves(label: str) -> bool:
    return isinstance(lookup(label), FunctionType)


def test_every_layer_label_resolves():
    layers = load_layers()
    labels = ({label for label, _ in layers.TIMES.values()}
              | set(layers.CALLS.values()) | set(layers.COUNTERS)
              | {layers.GOLDEN, layers.PeakMemory.LABEL})
    assert {label for label in labels if not resolves(label)} == KNOWN_MISSING


def test_every_counter_finds_its_arguments():
    layers = load_layers()
    for label, (_, count) in layers.COUNTERS.items():
        if label in KNOWN_MISSING:
            continue
        params = inspect.signature(lookup(label)).parameters
        count({name: MagicMock() for name in params}, MagicMock())
