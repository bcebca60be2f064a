"""Spans around the public functions of every scalewave module.

``Tracer.install`` replaces each public function defined in a layer module
with a wrapper, in every ``scalewave.*`` namespace that bound the function
(``solver`` imports ``laplacian_apply`` by name, so patching ``grid`` alone
would miss the solver's calls).  ``uninstall`` puts the originals back.
Spans are aggregated in memory per name: call count, total time, and the
time covered by child spans, so self time is total minus children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("model", "grid", "solver", "functionals", "verify", "odi", "analysis", "cli")


class Tracer:
    def __init__(self):
        self.calls = {}
        self.total_ns = {}
        self.child_ns = {}
        self.rk4_steps = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, total, child = self.calls, self.total_ns, self.child_ns
        for table in (calls, total, child):
            table.setdefault(name, 0)
        clock = time.perf_counter_ns
        count_steps = name == "odi.integrate_odi"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                if stack:
                    child[stack[-1]] += elapsed
            if count_steps:
                self.rk4_steps += len(result[0])
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"scalewave.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "scalewave" and not modname.startswith("scalewave."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_us(self, name: str) -> float:
        """Mean self time per call in microseconds; 0 for a span never entered."""
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        return (self.total_ns[name] - self.child_ns[name]) / calls / 1e3
