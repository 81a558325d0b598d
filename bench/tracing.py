"""Call counts, times and counters around the public functions of each maxcirc module.

The tracer wraps functions from outside the library: every module namespace
that holds a traced function (the defining module, the modules that imported
it by name, and the package itself) gets the wrapper in its place, so calls
are timed as their callers make them.  ``restore`` puts every original back.

Every call is timed as it returns.  Self time is a call's duration minus the
time of the traced calls made inside it.  A module's inclusive time counts
only its outermost calls, so recursion or a module calling itself is not
counted twice.  Counters are taken from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function, timed) for each function the traced run wraps.  Every
# function reports its call count.  Self time is reported only for the
# functions marked timed, which every workload calls: a time that reads 0 on
# every run of a workload cannot be told apart from one never measured.  A
# module reports its times when it has a timed function.
TRACED = (
    ("cli", "run", True),
    ("robustness", "classify", False),
    ("attraction", "attraction_system", True),
    ("attraction", "attraction_system_for_matrix", True),
    ("attraction", "in_attraction_cone", False),
    ("attraction", "check_attraction_inclusion", False),
    ("twosided", "greatest_solution_leq", False),
    ("twosided", "feasible_in_box", False),
    ("twosided", "simultaneous_feasible", False),
    ("twosided", "satisfies", True),
    ("periodicity", "transient_and_period", True),
    ("periodicity", "orbit_period", False),
    ("digraph", "max_cycle_mean", True),
    ("digraph", "critical_structure", False),
    ("digraph", "digraph_cyclicity", True),
    ("circulant", "circ_spectral", True),
    ("circulant", "expand", True),
    ("core", "mat_mul", True),
    ("core", "mat_power", True),
    ("core", "mat_vec", False),
)
TIMED_MODULES = tuple(dict.fromkeys(module for module, _, timed in TRACED if timed))


def _entry_bits(matrix) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for row in matrix.rows for v in row)


class Tracer:
    """Collects per-function call counts and self times, module times and counters."""

    def __init__(self) -> None:
        self.problem = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.module_incl_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.system_keys: set = set()
        self._stack: list[float] = []  # time of the traced calls inside each open call
        self._depth: Counter = Counter()
        self._patched: list[tuple] = []

    # --- timing -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        module = name.split(".")[0]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            self._depth[module] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                self.calls[name] += 1
                self.self_s[name] += duration - self._stack.pop()
                self._depth[module] -= 1
                if not self._depth[module]:
                    self.module_incl_s[module] += duration
                if self._stack:
                    self._stack[-1] += duration
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function, wherever maxcirc holds a reference to it."""
        namespaces = [m for key, m in sys.modules.items() if key == "maxcirc" or key.startswith("maxcirc.")]
        for module, func, _ in TRACED:
            original = getattr(sys.modules[f"maxcirc.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def restore(self) -> None:
        """Put every original function back."""
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # --- counters taken at the boundaries ---------------------------------------

    def _observe_robustness_classify(self, args, kwargs, report) -> None:
        self.counters["robustness.decided"] += sum(v.decided for v in report.as_dict().values())

    def _observe_attraction_attraction_system(self, args, kwargs, system) -> None:
        circulant = args[0]
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "min_transient")
        self.counters["attraction.builds"] += 1
        self.system_keys.add((self.problem, circulant.row, mode))

    def _observe_attraction_attraction_system_for_matrix(self, args, kwargs, system) -> None:
        self.counters["attraction.systems"] += 1
        self.counters["attraction.equations"] += len(system.equations)

    def _observe_attraction_check_attraction_inclusion(self, args, kwargs, verdict) -> None:
        self.counters["attraction.members_tested"] += verdict.members_tested

    def _observe_twosided_feasible_in_box(self, args, kwargs, result) -> None:
        self.counters["twosided.decided"] += result.status in ("feasible", "infeasible")

    def _observe_periodicity_transient_and_period(self, args, kwargs, info) -> None:
        self.counters["periodicity.power_steps"] += info.transient + info.period

    def _observe_core_mat_mul(self, args, kwargs, product) -> None:
        self.counters["core.mat_mul.ops"] += product.n**3
        bits = _entry_bits(product)
        if bits > self.counters["core.mat_mul.max_entry_bits"]:
            self.counters["core.mat_mul.max_entry_bits"] = bits

    # --- per-layer metrics ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values; a ratio whose base is zero reads 0."""
        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        out: dict[str, float] = {}
        for module in TIMED_MODULES:
            out[f"{module}.incl_s"] = self.module_incl_s[module]
            out[f"{module}.self_s"] = sum(v for k, v in self.self_s.items() if k.startswith(module + "."))
        for module, func, timed in TRACED:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = self.calls[name]
            if timed:
                out[f"{name}.self_s"] = self.self_s[name]
        out["robustness.decided_ratio"] = ratio(c["robustness.decided"], 6 * self.calls["robustness.classify"])
        out["attraction.system_distinct_ratio"] = ratio(len(self.system_keys), c["attraction.builds"])
        out["attraction.equations_per_system"] = ratio(c["attraction.equations"], c["attraction.systems"])
        out["attraction.members_tested"] = c["attraction.members_tested"]
        out["twosided.cap_exceeded"] = sum(
            c[f"twosided.{func}.raised.IterationCapExceeded"] for func in ("greatest_solution_leq", "feasible_in_box")
        )
        out["twosided.feasibility_decided_ratio"] = ratio(c["twosided.decided"], self.calls["twosided.feasible_in_box"])
        out["periodicity.power_steps"] = c["periodicity.power_steps"]
        out["core.mat_mul.ops"] = c["core.mat_mul.ops"]
        out["core.mat_mul.max_entry_bits"] = c["core.mat_mul.max_entry_bits"]
        return out
