"""Outside-in tracer for the ``unmix`` package.

The tracer changes no file of the package. In its own process it rebinds
the public names of each ``unmix`` module to timing wrappers: a function
is replaced under every name an ``unmix`` module binds it to, so calls made
through ``from .kkt import solve_subproblem`` are caught at their call
sites, and a dataclass is traced through its ``__post_init__``. Each call
while the tracer is enabled records a span (probe, start, end, parent span)
in memory; self times and counts are computed when the run ends.

A probe whose module or name no longer exists is recorded as missing, and
every metric that needs it is reported as missing: never as zero, never as
a crash. The same holds for the observers that read arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# Probe name -> (module, attribute). "Class.__post_init__" traces the
# construction of a dataclass.
PROBES = {
    "cli.main": ("unmix.cli", "main"),
    "batch.unmix_batch": ("unmix.batch", "unmix_batch"),
    "batch.unmix": ("unmix.batch", "unmix"),
    "batch.precompute_gram": ("unmix.batch", "precompute_gram"),
    "batch.batch_summary": ("unmix.batch", "batch_summary"),
    "batch.BatchJob": ("unmix.batch", "BatchJob.__post_init__"),
    "shift.shift_problem": ("unmix.shift", "shift_problem"),
    "shift.unshift_solution": ("unmix.shift", "unshift_solution"),
    "model.SpectralLibrary": ("unmix.model", "SpectralLibrary.__post_init__"),
    "model.UnmixingProblem": ("unmix.model", "UnmixingProblem.__post_init__"),
    "model.validate_problem": ("unmix.model", "validate_problem"),
    "model.validate_lower_bounds": ("unmix.model", "validate_lower_bounds"),
    "model.ShiftedProblem": ("unmix.model", "ShiftedProblem.__post_init__"),
    "model.objective_value": ("unmix.model", "objective_value"),
    "kkt.factorize": ("unmix.kkt", "factorize"),
    "kkt.solve_subproblem": ("unmix.kkt", "solve_subproblem"),
    "active_set.active_set_solve": ("unmix.active_set", "active_set_solve"),
    "active_set.initialize_state": ("unmix.active_set", "initialize_state"),
    "active_set.max_feasible_step": ("unmix.active_set", "max_feasible_step"),
    "active_set.transfer_to_active": ("unmix.active_set", "transfer_to_active"),
    "active_set.lagrange_multipliers": ("unmix.active_set", "lagrange_multipliers"),
    "active_set.release_from_active": ("unmix.active_set", "release_from_active"),
    "verify.verify_kkt": ("unmix.verify", "verify_kkt"),
}

BATCH_PROBES = ("batch.unmix_batch", "batch.unmix", "batch.precompute_gram",
                "batch.batch_summary", "batch.BatchJob")

# Observers read an argument or the result of one probe. Name -> probe.
OBSERVERS = {
    "free_sets": "kkt.factorize",  # the ``free`` argument of each factorization
    "pivots_in": "active_set.release_from_active",  # calls that returned a state
    "outer_iterations": "active_set.active_set_solve",  # Solution.outer_iterations
}


class Tracer:
    """Spans and counts for the probes of one process.

    ``install`` rebinds, ``uninstall`` restores. Spans are recorded only
    while ``enabled`` is true, so correctness checks made between traced
    calls do not enter the figures.
    """

    def __init__(self, probes=None):
        self.probes = dict(PROBES if probes is None else probes)
        self.names = list(self.probes)
        self.enabled = False
        self.spans = []  # (probe index, start, end, parent span index or -1)
        self.missing = {}  # probe or observer -> reason
        self.free_sets = Counter()
        self.pivots_in = 0
        self.outer_iterations = 0
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        for index, name in enumerate(self.names):
            module_name, attribute = self.probes[name]
            try:
                owner, key, original = _resolve(module_name, attribute)
            except LookupError as exc:
                self.missing[name] = str(exc)
                for observer, probe in OBSERVERS.items():
                    if probe == name:
                        self.missing[observer] = f"probe {name} is missing"
                continue
            wrapper = self._wrap(index, original, self._observer_for(name, original))
            if key == "__post_init__":
                self._rebind(owner, key, original, wrapper)
                continue
            for module in _unmix_modules():
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, bound_name, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _wrap(self, index, original, observe):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- observers ----------------------------------------------------------

    def _observer_for(self, probe, original):
        observers = [name for name, target in OBSERVERS.items() if target == probe]
        if not observers:
            return None
        observer = observers[0]
        if observer == "free_sets":
            params = list(inspect.signature(original).parameters)
            if "free" not in params:
                self.missing[observer] = f"{probe} takes no 'free' argument"
                return None
            position = params.index("free")

            def observe(args, kwargs, result):
                free = args[position] if len(args) > position else kwargs["free"]
                self.free_sets[tuple(int(i) for i in free)] += 1

        elif observer == "pivots_in":

            def observe(args, kwargs, result):
                if result is not None:
                    self.pivots_in += 1

        else:

            def observe(args, kwargs, result):
                self.outer_iterations += int(result.outer_iterations)

        def guarded(args, kwargs, result):
            if observer in self.missing:
                return
            try:
                observe(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                self.missing[observer] = f"observer failed: {type(exc).__name__}: {exc}"

        return guarded

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per-probe ``{"calls", "total_s", "self_s"}`` plus root-span time."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names if name not in self.missing}
        root_s = 0.0
        for slot, (index, start, end, parent) in enumerate(self.spans):
            row = table[self.names[index]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[slot]
            if parent < 0:
                root_s += end - start
        return table, root_s


def _unmix_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "unmix" or name.startswith("unmix."))]


def _resolve(module_name, attribute):
    """Return ``(owner, key, original function)`` or raise LookupError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"module {module_name} cannot be imported: {exc}") from None
    *path, key = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{attribute} does not exist")
    original = vars(owner).get(key) if path else getattr(owner, key, None)
    if not inspect.isfunction(original):
        raise LookupError(f"{module_name}.{attribute} is not a function")
    return owner, key, original


def _metric(unit, needs, compute):
    return {"unit": unit, "needs": needs, "compute": compute}


def _total(*probes):
    return lambda t: sum(t["table"][p]["total_s"] for p in probes)


def _self(*probes):
    return lambda t: sum(t["table"][p]["self_s"] for p in probes)


def _calls(probe):
    return lambda t: t["table"][probe]["calls"]


def _sizes(t):
    return [len(free) for free, n in t["tracer"].free_sets.items() for _ in range(n)]


# Per-layer metric -> unit, the probes and observers it needs, and how it is
# computed. ``t`` holds the probe table, the tracer, the traced pixel count
# and the walls of the untraced and traced passes.
PER_LAYER = {
    "cli.self_s": _metric("s", ("cli.main",), _self("cli.main")),
    "verify.verify_kkt_calls": _metric("count", ("verify.verify_kkt",), _calls("verify.verify_kkt")),
    "verify.verify_kkt_s": _metric("s", ("verify.verify_kkt",), _total("verify.verify_kkt")),
    "batch.precompute_gram_calls": _metric(
        "count", ("batch.precompute_gram",), _calls("batch.precompute_gram")),
    "shift.shift_problem_calls": _metric(
        "count", ("shift.shift_problem",), _calls("shift.shift_problem")),
    "shift.shift_problem_s": _metric("s", ("shift.shift_problem",), _total("shift.shift_problem")),
    "model.validate_problem_calls": _metric(
        "count", ("model.validate_problem",), _calls("model.validate_problem")),
    "model.validate_problem_s": _metric(
        "s", ("model.validate_problem",), _total("model.validate_problem")),
    "model.shifted_problem_calls": _metric(
        "count", ("model.ShiftedProblem",), _calls("model.ShiftedProblem")),
    "model.shifted_problem_s": _metric(
        "s", ("model.ShiftedProblem",), _total("model.ShiftedProblem")),
    "kkt.factorize_calls": _metric("count", ("kkt.factorize",), _calls("kkt.factorize")),
    "kkt.distinct_free_sets": _metric(
        "count", ("free_sets",), lambda t: len(t["tracer"].free_sets)),
    "kkt.factorize_per_free_set": _metric(
        "ratio", ("free_sets",),
        lambda t: sum(t["tracer"].free_sets.values()) / max(1, len(t["tracer"].free_sets))),
    "kkt.factorize_s": _metric("s", ("kkt.factorize",), _total("kkt.factorize")),
    "kkt.solve_subproblem_self_s": _metric(
        "s", ("kkt.solve_subproblem",), _self("kkt.solve_subproblem")),
    "kkt.mean_free_size": _metric(
        "count", ("free_sets",), lambda t: sum(_sizes(t)) / max(1, len(_sizes(t)))),
    # Computed, not measured: a Cholesky of an n x n block costs n^3 / 3 flops.
    "kkt.factor_mflop": _metric(
        "Mflop", ("free_sets",), lambda t: sum(n**3 for n in _sizes(t)) / 3e6),
    "active_set.iters_per_px": _metric(
        "1/px", ("outer_iterations",), lambda t: t["tracer"].outer_iterations / t["pixels"]),
    "active_set.pivots_out": _metric(
        "count", ("active_set.transfer_to_active",), _calls("active_set.transfer_to_active")),
    "active_set.pivots_in": _metric("count", ("pivots_in",), lambda t: t["tracer"].pivots_in),
    "active_set.step_s": _metric(
        "s", ("active_set.max_feasible_step", "active_set.transfer_to_active"),
        _total("active_set.max_feasible_step", "active_set.transfer_to_active")),
    "active_set.pricing_s": _metric(
        "s", ("active_set.lagrange_multipliers", "active_set.release_from_active"),
        _total("active_set.lagrange_multipliers", "active_set.release_from_active")),
    "active_set.self_s": _metric(
        "s", ("active_set.active_set_solve",), _self("active_set.active_set_solve")),
    "model.objective_value_calls": _metric(
        "count", ("model.objective_value",), _calls("model.objective_value")),
    "batch.self_s": _metric("s", BATCH_PROBES, _self(*BATCH_PROBES)),
    "shift.unshift_s": _metric(
        "s", ("shift.unshift_solution",), _total("shift.unshift_solution")),
    "trace.overhead_ratio": _metric(
        "ratio", (), lambda t: t["traced_wall"] / t["untraced_wall"]),
    "trace.unattributed_s": _metric("s", (), lambda t: t["traced_wall"] - t["root_s"]),
}


# Times of layers that only cli-p10 exercises. They read exactly 0 s on every
# run of the other workloads, so they are printed and stored with the run's
# record but left out of its result line and of BENCHMARK.json.
PRINTED_ONLY = ("cli.self_s", "verify.verify_kkt_s")


def per_layer_metrics(tracer, pixels, untraced_wall, traced_wall):
    """Every per-layer metric as ``{"value", "unit"}``, and the missing ones.

    A metric is missing when a probe or observer it needs is missing; the
    reason is returned with it.
    """
    table, root_s = tracer.summary()
    inputs = {"table": table, "tracer": tracer, "pixels": pixels, "root_s": root_s,
              "untraced_wall": untraced_wall, "traced_wall": traced_wall}
    metrics, missing = {}, {}
    for name, spec in PER_LAYER.items():
        absent = [need for need in spec["needs"] if need in tracer.missing]
        if absent:
            missing[name] = "; ".join(f"{need}: {tracer.missing[need]}" for need in absent)
            continue
        metrics[name] = {"value": spec["compute"](inputs), "unit": spec["unit"]}
    return metrics, missing
