"""Per-layer timings and counts from an in-process pass over the CLI.

The layers are the modules of ``epicost``. ``Wrapped`` wraps every public
function defined in those modules and rebinds the wrapper under each name
that any ``epicost`` module looks the function up by (``from .x import f``
copies the function into the importing module, so each copy is rebound).
Dispatch tables such as ``cli._HANDLERS`` hold the original handlers, so
their time counts as the self time of ``cli.run``. ``Wrapped.uninstall``
restores the originals. Nothing under ``src/`` is edited.
"""

import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from types import FunctionType

MODULES = ("cli", "config", "costs", "importation", "optimize", "game",
           "trajectory", "_kernels")

# work counted from each call's bound arguments and result
COUNTERS = {
    "importation.expected_imports": ("importation.expected_imports_terms",
                                     lambda a, r: a["k"]),
    "importation.pmf_support": ("importation.pmf_rows", lambda a, r: len(r[0])),
    "importation.sample_imports": ("importation.mc_draws", lambda a, r: a["trials"]),
    "game.nash_iterate": ("game.nash_iterations", lambda a, r: r.iterations),
    "game.cooperative_optimum": ("game.coop_sweep_cells",
                                 lambda a, r: 2 * a["grid_points"] ** 3),
    "trajectory.compare_monotone_vs_relax": ("trajectory.schedules",
                                             lambda a, r: r.n_schedules),
    "_kernels.batch_autarky_costs": ("kernels.batch_cells", lambda a, r: a["R"].size),
    "_kernels.policy_cost_grid": ("kernels.policy_cost_grid_points",
                                  lambda a, r: len(a["t"])),
}
GOLDEN = "optimize.golden_section"


def _modules():
    return {name: importlib.import_module(f"epicost.{name}") for name in MODULES}


class Wrapped:
    """Wrappers installed in the ``epicost`` modules, removable in one call."""

    def __init__(self, factory):
        self.saved = []
        mods = _modules()
        wrappers = {}   # id(original) -> {name: wrapper}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapper = factory(f"{short}.{name}", obj)
                    if wrapper is not None:
                        wrappers.setdefault(id(obj), {})[name] = wrapper
        import epicost
        for mod in (epicost, *mods.values()):
            for name, obj in list(vars(mod).items()):
                by_name = wrappers.get(id(obj))
                if by_name:
                    wrapper = by_name.get(name) or next(iter(by_name.values()))
                    self.saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self.saved):
            setattr(mod, name, obj)
        self.saved = []


class Tracer:
    """Inclusive time, self time and calls per wrapped function, plus work counts."""

    def __init__(self):
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self._children = []    # time of wrapped callees, one slot per open call

    def wrap(self, label, fn):
        counter = COUNTERS.get(label)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        def traced(*args, **kwargs):
            if label == GOLDEN:
                inner = args[0]

                def counted(x):
                    tracer.work["optimize.golden_section_evals"] += 1
                    return inner(x)
                args = (counted, *args[1:])
            tracer._children.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                tracer.total_ns[label] += elapsed
                tracer.self_ns[label] += elapsed - tracer._children.pop()
                tracer.calls[label] += 1
                if tracer._children:
                    tracer._children[-1] += elapsed
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.work[counter[0]] += counter[1](bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def ms(self, label) -> float:
        return self.total_ns[label] / 1e6

    def self_ms(self, label) -> float:
        return self.self_ns[label] / 1e6


class PeakMemory:
    """Peak bytes allocated inside each schedule comparison, by tracemalloc."""

    LABEL = "trajectory.compare_monotone_vs_relax"

    def __init__(self):
        self.peaks = []

    def wrap(self, label, fn):
        if label != self.LABEL:
            return None
        peaks = self.peaks

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured


# metric name -> (wrapped function, inclusive "total" or "self" time)
TIMES = {
    "cli.write_ms": ("cli.run", "self"),
    "config.load_config_ms": ("config.load_config", "total"),
    "costs.validate_curve_set_ms": ("costs.validate_curve_set", "total"),
    "importation.pmf_support_ms": ("importation.pmf_support", "total"),
    "importation.sample_imports_ms": ("importation.sample_imports", "total"),
    "importation.expected_imports_ms": ("importation.expected_imports", "total"),
    "optimize.golden_section_ms": ("optimize.golden_section", "total"),
    "optimize.minimize_over_screening_ms": ("optimize.minimize_over_screening", "total"),
    "optimize.minimize_over_imports_ms": ("optimize.minimize_over_imports", "total"),
    "game.solve_game_ms": ("game.solve_game", "total"),
    "game.nash_iterate_ms": ("game.nash_iterate", "total"),
    "game.best_response_ms": ("game.best_response", "total"),
    "game.cooperative_optimum_ms": ("game.cooperative_optimum", "total"),
    "game.cooperative_self_ms": ("game.cooperative_optimum", "self"),
    "trajectory.compare_ms": ("trajectory.compare_monotone_vs_relax", "total"),
    "trajectory.compare_self_ms": ("trajectory.compare_monotone_vs_relax", "self"),
    "trajectory.simulate_ms": ("trajectory.simulate", "total"),
    "kernels.batch_autarky_costs_ms": ("_kernels.batch_autarky_costs", "total"),
    "kernels.policy_cost_grid_ms": ("_kernels.policy_cost_grid", "total"),
}
# metric name -> wrapped function whose calls it counts
CALLS = {
    "costs.validate_curve_set_calls": "costs.validate_curve_set",
    "importation.expected_imports_calls": "importation.expected_imports",
    "optimize.golden_section_calls": "optimize.golden_section",
    "optimize.minimize_over_screening_calls": "optimize.minimize_over_screening",
    "optimize.minimize_over_imports_calls": "optimize.minimize_over_imports",
    "game.best_response_calls": "game.best_response",
}
# counts kept in Tracer.work
WORK = ("cli.report_bytes", "cli.report_rows", "importation.pmf_rows",
        "importation.mc_draws", "importation.expected_imports_terms",
        "optimize.golden_section_evals", "game.nash_iterations",
        "game.coop_sweep_cells", "trajectory.schedules", "kernels.batch_cells",
        "kernels.policy_cost_grid_points")


def times(tracer: Tracer) -> dict[str, float]:
    return {name: tracer.ms(label) if kind == "total" else tracer.self_ms(label)
            for name, (label, kind) in TIMES.items()}


def counts(tracer: Tracer) -> dict[str, int]:
    out = {name: tracer.calls[label] for name, label in CALLS.items()}
    out.update({name: tracer.work[name] for name in WORK})
    # bytes of the dense float64 R matrix, computed from its shape, not measured
    out["kernels.batch_input_bytes"] = 8 * tracer.work["kernels.batch_cells"]
    return out
