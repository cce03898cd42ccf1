import os
from pathlib import Path

import pytest

from epicost.costs import (BorderCost, CostCurveSet, OutbreakCost,
                           TransmissionCost)

# tests that start ``python -m epicost`` find the package without an install
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def quad_set():
    # c_T(x) = 1 + x**2, c_b(I) = 2 (1 - I/4), c_O(x) = 0.5 x, alpha = 1
    return CostCurveSet(
        TransmissionCost(c0=1.0, tti_slope=0.0, tti_capacity=0.0,
                         breakdown_jump=0.0, wide_slope=1.0, wide_exponent=2.0),
        BorderCost(b0=2.0, i_free=4.0, curvature=1.0),
        OutbreakCost(per_case=0.5, exponent=1.0),
        import_multiplier=1.0)


@pytest.fixture(scope="session")
def steep_set():
    # c_T(x) = 1 + x over the same border curve
    return CostCurveSet(
        TransmissionCost(c0=1.0, tti_slope=1.0),
        BorderCost(b0=2.0, i_free=4.0, curvature=1.0),
        OutbreakCost(per_case=0.5, exponent=1.0),
        import_multiplier=1.0)


@pytest.fixture(scope="session")
def shallow_set():
    # c_T(x) = 1 + 0.1 x
    return CostCurveSet(
        TransmissionCost(c0=1.0, tti_slope=0.1),
        BorderCost(b0=2.0, i_free=4.0, curvature=1.0),
        OutbreakCost(per_case=0.5, exponent=1.0),
        import_multiplier=1.0)
