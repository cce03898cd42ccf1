"""Two-region strategic analysis: best responses, Nash iteration, cooperation.

Each region screens its inbound travel link. In the noncooperative game the
opponent's prevalence is taken as given and permanent, so a region weighs
the cost of restricting arrivals against the suppression cost of accepting
imported cases (decision objective: transmission + border, with domestic
cases held at zero). Under cooperation the two regions minimize the summed
total cost jointly, with prevalence endogenous: a region that drives its
cases to zero poses no import threat, so zero cases with open borders is the
joint optimum, and ``cooperative_optimum`` returns it in closed form.

Border cost along a link is measured against that link's own free-travel
import level (screening factor F=1 costs nothing, full closure costs b0),
so the configured border curve is rescaled to the link's unscreened
expected-import level before solving.
"""

import math
from dataclasses import dataclass, replace

from .costs import CostBreakdown, CostCurveSet
from .errors import DomainError, InvariantViolation
from .importation import expected_imports
from .optimize import BOUNDARY_OPEN, FOC_TOL, GRID_POINTS, minimize_over_screening

DOMINANCE_TOL = 1e-9

# solver defaults, shared with ``config.SolverSettings``: best-response
# rounds and the largest move that counts as converged
MAX_ITERATIONS = 100
NASH_TOL = 1e-9


@dataclass(frozen=True)
class RegionState:
    """One region: population, current prevalence, domestic daily cases, curves."""

    name: str
    population: int
    prevalence: float
    domestic_cases: float
    curves: CostCurveSet

    def __post_init__(self):
        if self.population < 1:
            raise DomainError(f"population must be >= 1, got {self.population}")
        if not 0.0 <= self.prevalence <= 1.0:
            raise DomainError(f"prevalence must lie in [0, 1], got {self.prevalence}")
        if self.domestic_cases < 0:
            raise DomainError(f"domestic cases must be >= 0, got {self.domestic_cases}")


@dataclass(frozen=True)
class TravelLink:
    """Directed travel channel with a screening multiplier on expected imports."""

    origin: str
    destination: str
    travelers: int
    screening: float = 1.0

    def __post_init__(self):
        if self.travelers < 0:
            raise DomainError(f"travelers must be >= 0, got {self.travelers}")
        if not 0.0 <= self.screening <= 1.0:
            raise DomainError(f"screening must lie in [0, 1], got {self.screening}")
        if self.origin == self.destination:
            raise DomainError(f"link cannot loop ({self.origin} -> {self.destination})")


class RegionLookup:
    """Region and inbound-link lookup by name over ``regions`` and ``links``."""

    regions: tuple[RegionState, ...]
    links: tuple[TravelLink, ...]

    def region(self, name: str) -> RegionState:
        for r in self.regions:
            if r.name == name:
                return r
        raise DomainError(f"unknown region {name!r}")

    def inbound_link(self, name: str) -> TravelLink | None:
        for link in self.links:
            if link.destination == name:
                return link
        return None


@dataclass(frozen=True)
class GameState(RegionLookup):
    regions: tuple[RegionState, RegionState]
    links: tuple[TravelLink, ...]

    def __post_init__(self):
        names = [r.name for r in self.regions]
        if len(self.regions) != 2 or names[0] == names[1]:
            raise DomainError("a game takes exactly two distinctly named regions")
        seen = set()
        for link in self.links:
            if link.origin not in names or link.destination not in names:
                raise DomainError(f"link references unknown region "
                                  f"({link.origin} -> {link.destination})")
            key = (link.origin, link.destination)
            if key in seen:
                raise DomainError(f"duplicate link {link.origin} -> {link.destination}")
            seen.add(key)

    def opponent(self, name: str) -> RegionState:
        a, b = self.regions
        return b if a.name == name else a


@dataclass(frozen=True)
class PolicyDecision:
    """A region's chosen policy point and the costs it realizes."""

    region: str
    domestic_cases: float
    screening: float
    import_threat: float       # unscreened expected imports per day
    imports: float             # realized expected imports per day
    costs: CostBreakdown
    classification: str

    @property
    def objective(self) -> float:
        """Cost the region actually minimizes (transmission + border)."""
        return self.costs.objective


@dataclass(frozen=True)
class GameOutcome:
    """Decisions for both regions under one solution concept."""

    decisions: tuple[PolicyDecision, PolicyDecision]
    total: float

    def decision(self, name: str) -> PolicyDecision:
        for d in self.decisions:
            if d.region == name:
                return d
        raise DomainError(f"unknown region {name!r}")


@dataclass(frozen=True)
class NashResult:
    state: GameState
    outcome: GameOutcome
    converged: bool
    iterations: int


@dataclass(frozen=True)
class CoopResult:
    state: GameState
    outcome: GameOutcome
    steady_prevalences: tuple[float, float]


@dataclass(frozen=True)
class GameSolution:
    state: GameState
    nash: NashResult
    cooperative: CoopResult
    gap: float
    ratio: float

    @property
    def converged(self) -> bool:
        return self.nash.converged

    @property
    def iterations(self) -> int:
        return self.nash.iterations


def imports_between(origin: RegionState, link: TravelLink) -> float:
    """Expected imported cases per day along a link after screening."""
    return expected_imports(link.travelers, origin.prevalence) * link.screening


def _decision(region: RegionState, cases: float, threat: float, screening: float,
              classification: str) -> PolicyDecision:
    """The region's policy point ``(cases, screening)`` against ``threat``, costed.

    Border cost is measured in link terms (zero at F=1): the border curve is
    rescaled to a free level of 1 and evaluated at the screening factor
    itself, which also holds when the threat is zero.
    """
    curves = replace(region.curves, border=region.curves.border.rescaled(1.0))
    load = cases + curves.import_multiplier * threat * screening
    return PolicyDecision(
        region=region.name, domestic_cases=cases, screening=screening,
        import_threat=threat, imports=threat * screening,
        costs=curves.breakdown(load, screening), classification=classification)


def best_response(responder: RegionState, opponent: RegionState,
                  link: TravelLink, grid_points: int = GRID_POINTS,
                  foc_tol: float = FOC_TOL) -> PolicyDecision:
    """Responder's cost-minimizing screening against the opponent's prevalence.

    Domestic cases are pinned to zero: the responder's suppression cost is
    increasing in cases, so its inner minimization sits there. The screening
    factor is classified against ``foc_tol`` as in
    ``minimize_over_screening``.
    """
    threat = expected_imports(link.travelers, opponent.prevalence)

    if threat == 0.0:
        # nothing to screen: open borders, no restriction cost
        return _decision(responder, 0.0, 0.0, 1.0, BOUNDARY_OPEN)

    link_curves = replace(responder.curves,
                          border=responder.curves.border.rescaled(threat))

    result = minimize_over_screening(link_curves, threat, 0.0,
                                     grid_points=grid_points, foc_tol=foc_tol)
    return _decision(responder, 0.0, threat, result.argument, result.classification)


def nash_iterate(state: GameState, max_iters: int = MAX_ITERATIONS,
                 tol: float = NASH_TOL, grid_points: int = GRID_POINTS,
                 foc_tol: float = FOC_TOL) -> NashResult:
    """Both regions' best responses, reported as alternating rounds would be.

    A best response depends on the opponent's configured prevalence alone,
    never on its screening, so each region's response is computed once (open
    borders without an inbound link). A loop of rounds would stop after one
    when every response moves the configured screening by less than ``tol``,
    and after two otherwise, unless ``max_iters == 1`` stops it unconverged
    after one; non-convergence is flagged in the result, not raised.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    if tol <= 0:
        raise DomainError(f"tol must be > 0, got {tol}")

    decisions = []
    settled = True
    for region in state.regions:
        link = state.inbound_link(region.name)
        if link is None:
            decisions.append(_decision(region, 0.0, 0.0, 1.0, BOUNDARY_OPEN))
            continue
        decision = best_response(region, state.opponent(region.name), link,
                                 grid_points=grid_points, foc_tol=foc_tol)
        settled = settled and abs(decision.screening - link.screening) < tol
        decisions.append(decision)

    outcome = GameOutcome(tuple(decisions), sum(d.costs.total for d in decisions))
    return NashResult(state=state, outcome=outcome, converged=settled or max_iters > 1,
                      iterations=1 if settled or max_iters == 1 else 2)


def cooperative_optimum(state: GameState, grid_points: int = 0) -> CoopResult:
    """Joint minimizer of the summed total cost: zero cases, open borders.

    Each region's cost at (x, F) is T(x + alpha * threat * F) + B(F) +
    O(x + alpha * threat * F), where the threat into it grows with the
    cases its partner holds. The point (x1, F1, x2, F2) = (0, 1, 0, 1)
    minimizes the joint total over every curve set the cost classes accept:

    - a valid ``TransmissionCost`` is nondecreasing in the load, with least
      value c0 at zero load;
    - ``OutbreakCost`` is >= 0 = O(0), and the link border cost is >= 0 =
      B(F = 1);
    - a region holding zero cases poses zero import threat to its partner,
      so both loads are zero there.

    So the joint total is c0_1 + c0_2 and no point is cheaper. The minimizer
    is unique when b0 > 0 and T is strictly increasing, which the shape gate
    enforces. Both steady prevalences are zero.

    ``grid_points`` is ignored. It stays so that the benchmark's
    ``game.coop_sweep_cells`` counter, which reads it, counts 0 swept cells.
    """
    d1, d2 = (_decision(r, 0.0, 0.0, 1.0, "cooperative") for r in state.regions)
    outcome = GameOutcome((d1, d2), d1.costs.total + d2.costs.total)
    return CoopResult(state=state, outcome=outcome, steady_prevalences=(0.0, 0.0))


def price_of_noncooperation(nash: NashResult, coop: CoopResult) -> tuple[float, float]:
    """Total Nash cost minus total cooperative cost, and their ratio."""
    if nash.state != coop.state:
        raise DomainError("solutions come from different game states")
    gap = nash.outcome.total - coop.outcome.total
    if gap < -DOMINANCE_TOL:
        raise InvariantViolation(
            f"cooperative total exceeds Nash total by {-gap:g}")
    ratio = nash.outcome.total / coop.outcome.total if coop.outcome.total > 0 else math.nan
    return gap, ratio


def solve_game(state: GameState, max_iters: int = MAX_ITERATIONS,
               tol: float = NASH_TOL, grid_points: int = GRID_POINTS,
               foc_tol: float = FOC_TOL) -> GameSolution:
    """Nash and cooperative solutions with their cost gap."""
    nash = nash_iterate(state, max_iters=max_iters, tol=tol,
                        grid_points=grid_points, foc_tol=foc_tol)
    coop = cooperative_optimum(state)
    gap, ratio = price_of_noncooperation(nash, coop)
    return GameSolution(state=state, nash=nash, cooperative=coop,
                        gap=gap, ratio=ratio)
