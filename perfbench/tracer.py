"""Per-layer spans recorded from outside the program.

Each stage is a set of public entry points of one ``parahoric`` module. The
tracer replaces every binding of an entry point in the loaded ``parahoric``
modules (``ocsymbols`` binds many of them with ``from ... import``, so
patching only the defining module would miss those calls) and methods on
their class. A stage's self time is the time inside its calls minus the time
inside wrapped calls made from them.
"""
from __future__ import annotations

import functools
import sys
import time

# stage -> entry points, as (module, attribute); "Class.method" patches a class
STAGES: dict[str, list[tuple[str, str]]] = {
    "linalg.power_traces": [("parahoric.linalg", "power_traces_mod")],
    "ocsymbols.series": [
        ("parahoric.ocsymbols", "charpoly_up"),
        ("parahoric.ocsymbols", "family_charpoly"),
    ],
    "ocsymbols.model_matrix": [
        ("parahoric.ocsymbols", "up_model_matrix"),
        ("parahoric.ocsymbols", "family_model_matrix"),
    ],
    "ocsymbols.table_build": [
        ("parahoric.ocsymbols", "build_tables_mod"),
        ("parahoric.ocsymbols", "build_family_tables"),
    ],
    "distributions.moment_matrix": [("parahoric.distributions", "moment_matrix")],
    "distributions.family_moment_matrix": [
        ("parahoric.distributions", "family_moment_matrix"),
    ],
    "distributions.tail_solve": [
        ("parahoric.distributions", "tail_solve_matrix"),
        ("parahoric.distributions", "solve_error_profile"),
    ],
    "ocsymbols.up_apply": [("parahoric.ocsymbols", "up_apply_mod")],
    "ocsymbols.lift": [("parahoric.ocsymbols", "lift_symbol")],
    "ocsymbols.relations": [("parahoric.ocsymbols", "check_relations_mod")],
    "ocsymbols.eigensymbol": [("parahoric.ocsymbols", "auto_eigensymbol")],
    "ocsymbols.classical_space": [("parahoric.ocsymbols", "classical_space")],
    "linalg.exact": [
        ("parahoric.linalg", name)
        for name in ("nullspace", "solve", "rref", "rank", "charpoly_berkowitz",
                     "same_span", "in_span")
    ],
    "induction.bgg_kernel": [("parahoric.induction", "bgg_kernel")],
    "manin.presentation": [
        ("parahoric.manin", "ManinSystem.__init__"),
        ("parahoric.manin", "ManinSystem.solved_presentation"),
    ],
    "manin.hecke_plan": [("parahoric.manin", "ManinSystem.hecke_plan")],
    "padics.newton_polygon": [("parahoric.padics", "NewtonPolygon.__init__")],
}

# stage -> workloads on which it must record calls (the traced self-check)
EXPECTED_CALLS: dict[str, tuple[str, ...]] = {
    "linalg.power_traces": ("series",),
    "ocsymbols.series": ("series", "family"),
    "ocsymbols.model_matrix": ("series", "family"),
    "ocsymbols.table_build": ("series", "family"),
    "distributions.moment_matrix": ("lift", "series"),
    "distributions.family_moment_matrix": ("family",),
    "distributions.tail_solve": ("series", "family", "lift"),
    "ocsymbols.up_apply": ("lift",),
    "ocsymbols.lift": ("lift",),
    "ocsymbols.relations": ("lift",),
    "ocsymbols.eigensymbol": ("lift",),
    "ocsymbols.classical_space": ("lift",),
    "linalg.exact": ("lift", "bgg"),
    "induction.bgg_kernel": ("bgg",),
    "manin.presentation": ("series", "family", "lift"),
    "manin.hecke_plan": ("lift",),
    "padics.newton_polygon": ("series", "family"),
}

# stage -> counter read from each call's result
RESULT_COUNTERS = {"ocsymbols.lift": ("iterations", lambda report: report.iterations)}


class Tracer:
    """Wraps the entry points of STAGES and accumulates calls and self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {s: 0 for s in STAGES}
        self.self_s: dict[str, float] = {s: 0.0 for s in STAGES}
        self.counters: dict[str, dict[str, int]] = {s: {} for s in STAGES}
        self.absent: list[str] = []        # "module:attribute" no longer defined
        self.bindings: dict[str, int] = {}  # "module:attribute" -> names patched
        self.caches: dict[str, object] = {}  # stage -> lru_cache wrapper
        self._stack: list[list[float]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "parahoric" or name.startswith("parahoric.")]
        for stage, entries in STAGES.items():
            for module_name, attr in entries:
                key = f"{module_name}:{attr}"
                module = sys.modules.get(module_name)
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                orig = owner.__dict__.get(method) if owner is not None else None
                if orig is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(stage, orig)
                if owner_name:
                    setattr(owner, method, wrapper)
                    self.bindings[key] = 1
                    continue
                patched = 0
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, name, wrapper)
                            patched += 1
                self.bindings[key] = patched
                if hasattr(orig, "cache_info"):
                    self.caches[stage] = orig

    def _wrap(self, stage: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(stage)
        counters = self.counters[stage]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[stage] += 1
                self_s[stage] += dur - inner[0]
                if stack:
                    stack[-1][0] += dur
            if counter is not None:
                name, read = counter
                counters[name] = counters.get(name, 0) + read(result)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def stage_present(self, stage: str) -> bool:
        return any(f"{m}:{a}" not in self.absent for m, a in STAGES[stage])

    def report(self) -> dict:
        stages = {}
        for stage in STAGES:
            if not self.stage_present(stage):
                stages[stage] = None
                continue
            entry = {"calls": self.calls[stage], "self_s": self.self_s[stage]}
            entry.update(self.counters[stage])
            cache = self.caches.get(stage)
            if cache is not None:
                info = cache.cache_info()
                looked_up = info.hits + info.misses
                entry["hit_ratio"] = info.hits / looked_up if looked_up else 0.0
            stages[stage] = entry
        return {"stages": stages, "absent": self.absent, "bindings": self.bindings}
