"""Two-region strategic analysis: best responses, Nash iteration, cooperation.

Each region screens its inbound travel link. In the noncooperative game the
opponent's prevalence is taken as given and permanent, so a region weighs
the cost of restricting arrivals against the suppression cost of accepting
imported cases (decision objective: transmission + border, with domestic
cases held at zero). Under cooperation the two regions optimize the summed
total cost jointly, with prevalence endogenous: a region that drives its
cases to zero poses no import threat, which is what lets the joint optimum
reach zero cases with open borders.

Border cost along a link is measured against that link's own free-travel
import level (screening factor F=1 costs nothing, full closure costs b0),
so the configured border curve is rescaled to the link's unscreened
expected-import level before solving.
"""

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .costs import CostCurveSet
from .errors import DomainError, InvariantViolation, NumericalFailure
from .importation import expected_imports
from .optimize import (BOUNDARY_OPEN, FOC_TOL, GRID_POINTS, CostBreakdown,
                       golden_section, minimize_over_screening)

DOMINANCE_TOL = 1e-9

# coordinate sweeps of the cooperative polish, and the largest move that
# counts as converged
POLISH_ROUNDS = 40
POLISH_TOL = 1e-10

# days an imported case stays infectious; converts a daily case level into
# the steady-state prevalence used by the cooperative solver
DEFAULT_INFECTIOUS_DAYS = 10.0

# solver defaults, shared with ``config.SolverSettings``: best-response
# rounds, the largest move that counts as converged, the weight damping
# keeps on the previous screening factor, and the cooperative grid size
MAX_ITERATIONS = 100
NASH_TOL = 1e-9
DAMPING = 0.5
COOP_GRID_POINTS = 25


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
        return self.costs.transmission + self.costs.border


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


def _link_breakdown(curves: CostCurveSet, domestic: float, threat: float,
                    screening: float) -> CostBreakdown:
    """Cost components with border cost measured in link terms (zero at F=1).

    The border curve is rescaled to a free level of 1, so it is evaluated at
    the screening factor itself; that also holds when the threat is zero.
    """
    alpha = curves.import_multiplier
    load = domestic + alpha * threat * screening
    return CostBreakdown(
        transmission=curves.transmission.cost(load),
        border=curves.border.rescaled(1.0).cost(screening),
        outbreak=curves.outbreak.cost(load),
    )


def _decision(region: RegionState, cases: float, threat: float, screening: float,
              classification: str) -> PolicyDecision:
    """The region's policy point ``(cases, screening)`` against ``threat``, costed."""
    return PolicyDecision(
        region=region.name, domestic_cases=cases, screening=screening,
        import_threat=threat, imports=threat * screening,
        costs=_link_breakdown(region.curves, cases, threat, screening),
        classification=classification)


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
                 tol: float = NASH_TOL, damping: float = DAMPING,
                 grid_points: int = GRID_POINTS,
                 foc_tol: float = FOC_TOL) -> NashResult:
    """Alternating best responses until both regions' moves fall below tol.

    Iteration order is deterministic (first region responds first). If two
    successive sup-norm moves grow, the screening update is damped toward
    the previous value by ``damping``. Non-convergence is flagged in the
    result, not raised.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    if tol <= 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if not 0.0 <= damping <= 1.0:
        raise DomainError(f"damping must lie in [0, 1], got {damping}")

    current: dict[str, float] = {}   # screening factor per region
    for region in state.regions:
        link = state.inbound_link(region.name)
        current[region.name] = link.screening if link else 1.0

    decisions: dict[str, PolicyDecision] = {}
    converged = False
    iterations = 0
    prev_move = math.inf
    damping_on = False

    for iteration in range(1, max_iters + 1):
        iterations = iteration
        move = 0.0
        for region in state.regions:
            link = state.inbound_link(region.name)
            if link is None:
                decision = _decision(region, 0.0, 0.0, 1.0, BOUNDARY_OPEN)
            else:
                decision = best_response(region, state.opponent(region.name),
                                         link, grid_points=grid_points,
                                         foc_tol=foc_tol)
            old_f = current[region.name]
            new_f = decision.screening
            if damping_on:
                new_f = damping * old_f + (1.0 - damping) * new_f
                decision = _decision(region, decision.domestic_cases,
                                     decision.import_threat, new_f,
                                     decision.classification)
            move = max(move, abs(new_f - old_f))
            current[region.name] = new_f
            decisions[region.name] = decision
        if move < tol:
            converged = True
            break
        if move > prev_move and not damping_on:
            damping_on = True
        prev_move = move

    ordered = tuple(decisions[r.name] for r in state.regions)
    total = sum(d.costs.total for d in ordered)
    return NashResult(state=state, outcome=GameOutcome(ordered, total),
                      converged=converged, iterations=iterations)


def _steady_prevalence(region: RegionState, cases: float,
                       infectious_days: float) -> float:
    return min(1.0, infectious_days * cases / region.population)


def _sweep_costs(curves: CostCurveSet, cases, threats, fs: np.ndarray,
                 border: np.ndarray) -> np.ndarray:
    """``_link_breakdown(...).total`` broadcast over cases, threats and F."""
    load = cases + (curves.import_multiplier * threats) * fs
    costs = (curves.transmission.cost_arr(load) + border
             + curves.outbreak.cost_arr(load))
    if not np.all(np.isfinite(costs)):
        raise NumericalFailure("non-finite cost in the cooperative grid sweep")
    return costs


def _coop_grid_winner(r1: RegionState, r2: RegionState, xs: np.ndarray,
                      fs: np.ndarray, threats1: np.ndarray,
                      threats2: np.ndarray) -> tuple[float, float, float, float]:
    """Grid point ``(x1, f1, x2, f2)`` with the least joint total cost.

    ``threats1[i]`` is the threat into region 1 when region 2 holds
    ``xs[i]`` cases, and vice versa. Each x1 row is two G x G cost arrays
    over (x2, F), one per region; F is minimized out per region, smallest F
    first on ties, and the first strict joint minimum in row-major (x1, x2)
    order wins.
    """
    # border cost depends on F alone; take it from the scalar breakdown
    border1, border2 = (np.array([_link_breakdown(r.curves, 0.0, 0.0, f).border
                                  for f in fs]) for r in (r1, r2))
    rows = np.arange(len(xs))
    best = None
    for i1, x1 in enumerate(xs):
        costs1 = _sweep_costs(r1.curves, x1, threats1[:, None], fs, border1)
        costs2 = _sweep_costs(r2.curves, xs[:, None], threats2[i1], fs, border2)
        j1 = np.argmin(costs1, axis=1)
        j2 = np.argmin(costs2, axis=1)
        joint = costs1[rows, j1] + costs2[rows, j2]
        i2 = int(np.argmin(joint))
        if best is None or joint[i2] < best[0]:
            best = (joint[i2], float(x1), float(fs[j1[i2]]), float(xs[i2]),
                    float(fs[j2[i2]]))
    return best[1:]


def cooperative_optimum(state: GameState, grid_points: int = COOP_GRID_POINTS,
                        infectious_days: float = DEFAULT_INFECTIOUS_DAYS) -> CoopResult:
    """Joint minimizer of the summed total cost over both regions' (x, F).

    Prevalence is endogenous at steady state, ``min(1, infectious_days * x /
    N)``, so zero chosen cases mean zero import threat to the partner. The
    solver sweeps an exhaustive G x G x G policy grid one x1 row at a time
    (two G x G cost arrays per row, so memory is O(G^2)); ties resolve to the
    smallest F, then to the first (x1, x2) in row-major order. It then
    polishes each coordinate by golden section, for at most POLISH_ROUNDS
    sweeps or until no coordinate moves by POLISH_TOL; with increasing
    transmission and outbreak curves the optimum lands on zero cases and open
    borders for both regions.
    """
    r1, r2 = state.regions
    link_in = {r.name: state.inbound_link(r.name) for r in state.regions}

    # the polish holds all but one coordinate fixed, so threats repeat
    @cache
    def threat_into(name: str, other_cases: float) -> float:
        link = link_in[name]
        if link is None:
            return 0.0
        other = state.opponent(name)
        prev = _steady_prevalence(other, other_cases, infectious_days)
        return expected_imports(link.travelers, prev)

    def cost_at(region: RegionState, x: float, f: float, threat: float) -> float:
        return _link_breakdown(region.curves, x, threat, f).total

    x_max = max(1.0, r1.domestic_cases, r2.domestic_cases)
    xs = np.linspace(0.0, x_max, grid_points)
    fs = np.linspace(0.0, 1.0, grid_points)
    threats1 = np.array([threat_into(r1.name, xv) for xv in xs])  # depends on r2's cases
    threats2 = np.array([threat_into(r2.name, xv) for xv in xs])
    x1, f1, x2, f2 = _coop_grid_winner(r1, r2, xs, fs, threats1, threats2)

    def total(p):
        return (cost_at(r1, p[0], p[1], threat_into(r1.name, p[2]))
                + cost_at(r2, p[2], p[3], threat_into(r2.name, p[0])))

    point = [x1, f1, x2, f2]
    bounds = [(0.0, x_max), (0.0, 1.0), (0.0, x_max), (0.0, 1.0)]
    for _ in range(POLISH_ROUNDS):
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):
            def axis(v, i=i):
                q = list(point)
                q[i] = v
                return total(q)
            v, fv = golden_section(axis, lo, hi, 1e-10 * (hi - lo))
            # snap onto a boundary when it is at least as good
            for edge in (lo, hi):
                if axis(edge) <= fv:
                    v, fv = edge, axis(edge)
            moved = max(moved, abs(v - point[i]))
            point[i] = v
        if moved < POLISH_TOL:
            break

    x1, f1, x2, f2 = point
    d1 = _decision(r1, x1, threat_into(r1.name, x2), f1, "cooperative")
    d2 = _decision(r2, x2, threat_into(r2.name, x1), f2, "cooperative")
    outcome = GameOutcome((d1, d2), d1.costs.total + d2.costs.total)
    prevs = (_steady_prevalence(r1, x1, infectious_days),
             _steady_prevalence(r2, x2, infectious_days))
    return CoopResult(state=state, outcome=outcome, steady_prevalences=prevs)


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
               tol: float = NASH_TOL, coop_grid_points: int = COOP_GRID_POINTS,
               infectious_days: float = DEFAULT_INFECTIOUS_DAYS,
               damping: float = DAMPING, grid_points: int = GRID_POINTS,
               foc_tol: float = FOC_TOL) -> GameSolution:
    """Nash and cooperative solutions with their cost gap."""
    nash = nash_iterate(state, max_iters=max_iters, tol=tol, damping=damping,
                        grid_points=grid_points, foc_tol=foc_tol)
    coop = cooperative_optimum(state, grid_points=coop_grid_points,
                               infectious_days=infectious_days)
    gap, ratio = price_of_noncooperation(nash, coop)
    return GameSolution(state=state, nash=nash, cooperative=coop,
                        gap=gap, ratio=ratio)
