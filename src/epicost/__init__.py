"""Cost-of-policy toolkit for epidemic suppression.

Imported-case probability models, parametric policy-cost curves,
single-region cost minimization, a two-region Nash-vs-cooperative solver,
and a trajectory simulator for costing multi-day strategies.
"""

from .costs import (BorderCost, CostBreakdown, CostCurveSet, OutbreakCost,
                    ShapeReport, TransmissionCost, validate_curve_set)
from .errors import (ConfigError, DomainError, InvariantViolation,
                     KinkAmbiguityError, NumericalFailure)
from .game import (GameSolution, GameState, PolicyDecision, RegionState,
                   TravelLink, best_response, cooperative_optimum,
                   imports_between, nash_iterate, price_of_noncooperation,
                   solve_game)
from .importation import (ImportScenario, SourceProfile, approx_tail_sum,
                          expected_imports, expected_imports_multi,
                          hypergeom_mean, hypergeom_pmf, import_tail_sum,
                          pmf_support, sample_counts, sample_imports)
from .optimize import (OptimizationResult, aggregate_cost,
                       closure_condition_with_refund, minimize_over_imports,
                       minimize_over_screening, total_policy_cost)
from .trajectory import (DynamicsParams, PolicySchedule, ScheduleComparison,
                         Trajectory, compare_monotone_vs_relax, daily_cost,
                         simulate, steady_state_holding_cost, step)

__version__ = "0.1.0"

__all__ = [
    "BorderCost", "CostBreakdown", "CostCurveSet", "OutbreakCost", "ShapeReport",
    "TransmissionCost", "validate_curve_set",
    "ConfigError", "DomainError", "InvariantViolation", "KinkAmbiguityError",
    "NumericalFailure",
    "GameSolution", "GameState", "PolicyDecision", "RegionState", "TravelLink",
    "best_response", "cooperative_optimum", "imports_between", "nash_iterate",
    "price_of_noncooperation", "solve_game",
    "ImportScenario", "SourceProfile", "approx_tail_sum", "expected_imports",
    "expected_imports_multi", "hypergeom_mean", "hypergeom_pmf",
    "import_tail_sum", "pmf_support", "sample_counts", "sample_imports",
    "OptimizationResult", "aggregate_cost",
    "closure_condition_with_refund", "minimize_over_imports",
    "minimize_over_screening", "total_policy_cost",
    "DynamicsParams", "PolicySchedule", "ScheduleComparison", "Trajectory",
    "compare_monotone_vs_relax", "daily_cost", "simulate",
    "steady_state_holding_cost", "step",
    "__version__",
]
