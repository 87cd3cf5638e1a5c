"""Per-layer tracing from outside the package: wrap public functions, time spans.

Each traced function is replaced by a wrapper that records one span per call.
A span's self time is its duration minus the time covered by the spans it
caused, so the self times of all wrapped functions partition the traced time
that falls inside any span.

Package modules bind each other's names with ``from .geometry import ...``,
so patching only the defining module would miss most calls.  ``install``
therefore replaces every binding of a wrapped function in every loaded
``paretostar`` module (the package ``__init__`` included) and every entry of
``axioms.AXIOM_CHECKS``.  ``uninstall`` puts the original objects back.

Which end-to-end metric each layer should move, and on which workload, is
recorded in ``LAYER_EFFECTS`` and in ``README.md`` next to this file.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# module -> functions whose calls and self time are reported.
LAYERS = {
    "geometry": (
        "simplex_standard",
        "feasible_nonneg",
        "lp_solve",
        "remove_redundant",
        "separate",
        "convex_weights",
        "vrep_to_hrep",
        "hrep_vertices",
    ),
    "preferences": (
        "utility_profile",
        "expected_utility",
        "bewley_geq",
        "strict_prior_against",
        "no_taste_disagreement",
        "check_c_minimal_agreement",
    ),
    "axioms": (
        "pareto_check",
        "pareto_star_check",
        "ct_pareto_check",
        "ct_pareto_star_check",
        "exchange_pareto_check",
        "exchange_pareto_star_check",
    ),
    "characterizations": (
        "combo_meets",
        "utilitarian_decompose",
        "check_thm1_condition",
        "check_thm2_condition",
        "check_eq1_dght1",
        "check_eq4_dght2",
        "check_corollary2",
        "check_seu_existence",
        "aggregate_society",
    ),
    "witnesses": (
        "witness_ct_pareto_star",
        "witness_lemma1",
        "witness_spurious_unanimity",
        "revalidate",
    ),
    "harness": ("fuzz_axiom", "cross_validate"),
    "documents": ("load_profile", "dumps"),
    "cli": ("main",),
}

LAYER_EFFECTS = {
    "geometry": "verdicts_per_s on lp-guard (most) and many-agents; setup_s everywhere",
    "preferences": "verdicts_per_s and verdict_p50_ms on crossval-fuzz",
    "axioms": "exchange_pareto_star_check: lp-guard; the other five: crossval-fuzz",
    "characterizations": "verdicts_per_s on many-agents; lp-guard through combo_meets",
    "witnesses": "verdict_tail_ms on crossval-fuzz and cli-profiles",
    "harness": "verdicts_per_s on crossval-fuzz",
    "documents": "verdict_p50_ms on cli-profiles",
    "cli": "verdict_p50_ms on cli-profiles (self time includes building the parser)",
}

# Derived per-layer metrics: name -> unit and direction.
DERIVED = {
    "geometry.simplex_standard.cells": ("count", "lower"),
    "geometry.simplex_standard.max_cells": ("count", "lower"),
    "geometry.remove_redundant.kept_ratio": ("ratio", "higher"),
    "preferences.check_c_minimal_agreement.hit_ratio": ("ratio", "higher"),
    "characterizations.combo_meets.meet_ratio": ("ratio", "higher"),
    "characterizations.enumerate_combos.combos": ("count", "lower"),
    "harness.fuzz_axiom.trials": ("count", "lower"),
    "harness.fuzz_axiom.premise_hit_ratio": ("ratio", "higher"),
    "documents.dumps.bytes": ("bytes", "lower"),
}

OVERHEAD = "trace.overhead_ratio"


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    specs = []
    for module, functions in LAYERS.items():
        for fn in functions:
            specs.append({"name": f"{module}.{fn}.calls", "unit": "count", "better": "lower"})
            specs.append({"name": f"{module}.{fn}.self_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{module}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        specs.append({"name": name, "unit": unit, "better": better})
    specs.append({"name": OVERHEAD, "unit": "ratio", "better": "lower"})
    return specs


def _first_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span timer over the package's public functions.

    The span stack holds, for each open span, the time its children covered;
    its bottom entry collects spans opened directly by the benchmark.
    """

    def __init__(self):
        self._stack = [0.0]
        self._stats: dict[str, _Stat] = {}
        self._counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._cache = None
        self.replaced = 0  # names and dict entries the last install replaced

    # -- counters ---------------------------------------------------------

    def reset(self) -> None:
        self._stats = {
            f"{m}.{fn}": _Stat() for m, fns in LAYERS.items() for fn in fns
        }
        self._counts = {
            "cells": 0,
            "max_cells": 0,
            "redundant_in": 0,
            "redundant_kept": 0,
            "meets": 0,
            "combos": 0,
            "trials": 0,
            "premise_hits": 0,
            "bytes": 0,
        }

    def _observe(self, key, args, kwargs, result) -> None:
        c = self._counts
        if key == "geometry.simplex_standard":
            rows = _first_arg(args, kwargs, 0, "rows")
            cells = len(rows) * len(_first_arg(args, kwargs, 2, "objective"))
            c["cells"] += cells
            c["max_cells"] = max(c["max_cells"], cells)
        elif key == "geometry.remove_redundant":
            c["redundant_in"] += len(_first_arg(args, kwargs, 0, "points"))
            c["redundant_kept"] += len(result)
        elif key == "characterizations.combo_meets":
            c["meets"] += result is not None
        elif key == "harness.fuzz_axiom":
            c["trials"] += result.trials
            c["premise_hits"] += result.premise_hits
        elif key == "documents.dumps":
            c["bytes"] += len(result.encode("utf-8"))

    # -- wrappers ---------------------------------------------------------

    def _span(self, key, fn):
        stack = self._stack
        observed = key in (
            "geometry.simplex_standard",
            "geometry.remove_redundant",
            "characterizations.combo_meets",
            "harness.fuzz_axiom",
            "documents.dumps",
        )

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stat = self._stats[key]
                stat.calls += 1
                stat.self_s += dur - child
                stack[-1] += dur
            if observed:
                self._observe(key, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _counting_combos(self, fn):
        """Count the combos a caller actually draws from the iterator."""

        def count(iterator):
            for combo in iterator:
                self._counts["combos"] += 1
                yield combo

        def traced(*args, **kwargs):
            # Called eagerly so a cap error still raises at the call site.
            return count(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every traced function in the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module in LAYERS:
            importlib.import_module(f"paretostar.{module}")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "paretostar" or name.startswith("paretostar."))
        }
        replacement = {}
        for module, functions in LAYERS.items():
            defining = modules[f"paretostar.{module}"]
            for fn in functions:
                original = getattr(defining, fn)
                replacement[id(original)] = self._span(f"{module}.{fn}", original)
        combos = modules["paretostar.characterizations"].enumerate_combos
        replacement[id(combos)] = self._counting_combos(combos)
        # cache_info() lives on the lru_cache object, not on its wrapper.
        self._cache = modules["paretostar.preferences"].check_c_minimal_agreement

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        checks = modules["paretostar.axioms"].AXIOM_CHECKS
        for tag, value in list(checks.items()):
            wrapper = replacement.get(id(value))
            if wrapper is not None:
                self._patched.append((checks, tag, value))
                checks[tag] = wrapper
        self.replaced = len(self._patched)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patched = []

    # -- report -----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, self times and derived counts since ``reset``.

        Every pass does the same work, so counts divide exactly.
        """
        out: dict[str, float] = {}
        for module, functions in LAYERS.items():
            module_self = 0.0
            for fn in functions:
                stat = self._stats[f"{module}.{fn}"]
                out[f"{module}.{fn}.calls"] = stat.calls / passes
                out[f"{module}.{fn}.self_s"] = stat.self_s / passes
                module_self += stat.self_s
            out[f"{module}.self_s"] = module_self / passes
        c = self._counts
        info = self._cache.cache_info()
        lookups = info.hits + info.misses
        meets_calls = self._stats["characterizations.combo_meets"].calls
        out["geometry.simplex_standard.cells"] = c["cells"] / passes
        out["geometry.simplex_standard.max_cells"] = c["max_cells"]
        out["geometry.remove_redundant.kept_ratio"] = _ratio(c["redundant_kept"], c["redundant_in"])
        out["preferences.check_c_minimal_agreement.hit_ratio"] = _ratio(info.hits, lookups)
        out["characterizations.combo_meets.meet_ratio"] = _ratio(c["meets"], meets_calls)
        out["characterizations.enumerate_combos.combos"] = c["combos"] / passes
        out["harness.fuzz_axiom.trials"] = c["trials"] / passes
        out["harness.fuzz_axiom.premise_hit_ratio"] = _ratio(c["premise_hits"], c["trials"])
        out["documents.dumps.bytes"] = c["bytes"] / passes
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
