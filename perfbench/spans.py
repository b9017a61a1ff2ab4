"""Spans around calls into procsem's layers, installed from outside.

Every function named in a layer module's ``__all__`` is replaced by a
wrapper wherever a procsem module holds it: the module's own attribute,
every ``from .x import y`` binding, and ``constraints._sim_leq``.  Default
arguments keep the original (``greatest_simulation(stepper=step)``), and
generator functions are left alone because a span would only time the
creation of the generator.

A call records a span when it crosses into the layer: from the benchmark or
from another procsem module.  Calls inside a layer (recursion, helpers) are
counted but record no span, except ``preorders.decide``, which is the
per-cell dispatch and always records one, named after the flavor family of
the cell.  Spans live in flat arrays until the round ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from array import array
from time import perf_counter

LAYERS = ("terms", "lts", "constraints", "observations", "preorders", "operational", "logic", "axioms")

FAMILIES = {"b": "b", "db": "db", "bf": "bf", "bf⊇": "bf", "bisim": "bisim"}


def flavor_family(flavor: str) -> str:
    """bf, b, db, bisim, or linear (the diamond, lattice and extended-ready flavors)."""
    return FAMILIES.get(flavor, "linear")


def procsem_modules():
    import procsem

    mods = [procsem]
    for info in pkgutil.iter_modules(procsem.__path__):
        mods.append(importlib.import_module(f"procsem.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.saturated: dict[int, int] = {}

    def name_id(self, layer: str, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
        return self._ids[name]

    def count(self, name: str) -> int:
        i = self._ids.get(name)
        return self.calls[i] if i is not None else 0

    def wrap(self, layer: str, fname: str, orig):
        module_name = f"procsem.{layer}"
        base = self.name_id(layer, f"{layer}.{fname}")
        calls = self.calls
        stack = self.stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        tag = self._tagger(layer, fname)
        always = (layer, fname) == ("preorders", "decide")
        on_result = self._result_hook(layer, fname)
        getframe = sys._getframe

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[base] += 1
            span = base
            if tag is not None:
                span = tag(args)
                calls[span] += 1
            if not always and getframe(1).f_globals.get("__name__") == module_name:
                result = orig(*args, **kwargs)
            else:
                idx = len(starts)
                names.append(span)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
                t0 = perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    starts[idx] = t0
                    stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _tagger(self, layer: str, fname: str):
        if (layer, fname) == ("preorders", "decide"):
            ids = {f: self.name_id(layer, f"preorders.decide[{f}]") for f in ("b", "db", "bf", "bisim", "linear")}
            return lambda args: ids[flavor_family(args[0].flavor)]
        if (layer, fname) == ("constraints", "local_eq"):
            s_id = self.name_id(layer, "constraints.local_eq[S]")
            other = self.name_id(layer, "constraints.local_eq[other]")
            return lambda args: s_id if args[0] == "S" else other
        return None

    def _result_hook(self, layer: str, fname: str):
        if (layer, fname) == ("operational", "nd_saturate"):
            saturated = self.saturated

            def hook(state):
                saturated[id(state)] = len(getattr(state, "saturation", ()))

            return hook
        return None

    def install(self) -> None:
        modules = procsem_modules()
        by_name = {m.__name__: m for m in modules}
        for layer in LAYERS:
            mod = by_name[f"procsem.{layer}"]
            for fname in mod.__all__:
                orig = getattr(mod, fname)
                if isinstance(orig, type) or not callable(orig) or inspect.isgeneratorfunction(orig):
                    continue
                wrapper = self.wrap(layer, fname, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per-layer self time and span count, and inclusive time per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        spans = {layer: 0 for layer in LAYERS}
        inclusive: dict[str, float] = {}
        for i in range(n):
            name = self.span_name[i]
            layer = self.layer_of[name]
            self_s[layer] += dur[i] - child[i]
            spans[layer] += 1
            key = self.names[name]
            inclusive[key] = inclusive.get(key, 0.0) + dur[i]
        return self_s, spans, inclusive


def cache_sites(modules) -> dict[str, object]:
    """Every module-level lru_cache in procsem, by qualified name."""
    out = {}
    for m in modules:
        for attr, value in vars(m).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == m.__name__:
                out[f"{m.__name__}.{attr}"] = value
    return out


# Cache sites whose misses are reported, by metric name.
MISSES = {
    "preorders.nsim_pair.misses": "procsem.preorders._nsim_pair",
    "observations.enum_lgo.misses": "procsem.observations.enum_lgo",
    "observations.enum_complete_dbgo.misses": "procsem.observations.enum_complete_dbgo",
    "lts.traces.misses": "procsem.lts.traces",
    "constraints.local_obs.misses": "procsem.constraints.local_obs",
    "operational.nd_saturate.misses": "procsem.operational.nd_saturate",
    "axioms.hnf.misses": "procsem.axioms.hnf",
}

DECIDE_SECONDS = {f"preorders.{family}_s": f"preorders.decide[{family}]" for family in ("bf", "b", "linear", "db")}


def layer_metrics(tracer: Tracer, sites: dict, ops: int, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced round.

    ``sites`` are the lru caches found before the wrappers were installed;
    ``counts`` holds what the benchmark counted from the outputs.  A cache
    site or intern table the program no longer has reads 0.
    """
    from procsem.observations import BranchingObs
    from procsem.terms import CanonicalTerm

    self_s, spans, inclusive = tracer.self_times()
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = spans[layer]
    for metric, span in DECIDE_SECONDS.items():
        out[metric] = inclusive.get(span, 0.0)
    out["preorders.decide.calls"] = tracer.count("preorders.decide") / max(ops, 1)
    out["constraints.local_eq.calls"] = tracer.count("constraints.local_eq")
    out["constraints.local_eq_S.calls"] = tracer.count("constraints.local_eq[S]")
    out["logic.distinguish.calls"] = tracer.count("logic.distinguish")
    for metric, site in MISSES.items():
        out[metric] = sites[site].cache_info().misses if site in sites else 0
    sat = sites["procsem.logic.sat"].cache_info() if "procsem.logic.sat" in sites else None
    calls = sat.hits + sat.misses if sat else 0
    out["logic.sat.calls"] = calls
    out["logic.sat.hit_ratio"] = sat.hits / calls if calls else 0.0
    out["memo.entries"] = sum(site.cache_info().currsize for site in sites.values())
    out["terms.interned"] = len(getattr(CanonicalTerm, "_interned", ()))
    out["observations.bgo_interned"] = len(getattr(BranchingObs, "_interned", ()))
    out["operational.saturated_states"] = sum(tracer.saturated.values())
    out.update(counts)
    return out
