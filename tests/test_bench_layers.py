"""Every function the benchmark's layer metrics wrap exists in ``epicost``.

``perfbench/layers.py`` finds its functions by label (``"module.name"``) at
run time; a label that no longer resolves leaves its metric at 0 without an
error. This test fails as soon as a refactor renames or removes one.
"""

import importlib
import importlib.util
from pathlib import Path
from types import FunctionType

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# wrapped by the benchmark but deleted from the library; its three
# kernels.batch_* metrics read 0 until the benchmark points them elsewhere
KNOWN_MISSING = {"_kernels.batch_autarky_costs"}


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(label: str) -> bool:
    module_name, name = label.split(".")
    module = importlib.import_module(f"epicost.{module_name}")
    return isinstance(getattr(module, name, None), FunctionType)


def test_every_layer_label_resolves():
    layers = load_layers()
    labels = ({label for label, _ in layers.TIMES.values()}
              | set(layers.CALLS.values()) | set(layers.COUNTERS)
              | {layers.GOLDEN, layers.PeakMemory.LABEL})
    assert {label for label in labels if not resolves(label)} == KNOWN_MISSING
