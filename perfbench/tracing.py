"""Span tracing of choquet's public functions, installed from outside.

``Tracer.install`` replaces every public function of each layer module,
plus ``FunctionSystem.validate``/``require_valid``, by a wrapper that
records a span (name, start, end, parent span, top-level call id) in
memory.  The wrapper is put into every namespace that holds the original:
the defining module, modules that imported the name (``maxprinciple``
imports ``choquet_boundary``), the ``choquet`` re-exports and module-level
tables such as ``generators.GENERATORS``.  ``uninstall`` restores them.

``lp.solve`` additionally keeps the solved ``LinearProgram`` and its
status, so the LPs can be re-solved with HiGHS after timing; the first
computing ``validate`` call on a system runs under ``tracemalloc``.
"""

import importlib
import inspect
import time
import tracemalloc

import numpy as np

LAYERS = ("lp", "measures", "convexify", "sets", "maxprinciple", "space",
          "generators", "plotting", "_util", "cli")


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.calls = [], [], [], [], []
        self.stack = []
        self.call_id = None
        self.lps = []  # (span index, LinearProgram, status)
        self.validate_peaks = []  # bytes, one per computing validate call
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.calls.append(self.call_id)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        def traced_solve(prog, *args, **kwargs):
            i = tracer._open(name)
            status = "error"
            try:
                out = fn(prog, *args, **kwargs)
                status = out.status
                return out
            finally:
                tracer._close(i)
                tracer.lps.append((i, prog, status))

        def traced_validate(system):
            if getattr(system, "_report", None) is not None:  # cached verdict
                return traced(system)
            tracemalloc.start()
            try:
                return traced(system)
            finally:
                tracer.validate_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        wrapper = {"lp.solve": traced_solve, "space.validate": traced_validate}.get(name, traced)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        import choquet

        mods = {layer: importlib.import_module(f"choquet.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        system_cls = mods["space"].FunctionSystem
        for meth in ("validate", "require_valid"):
            original = vars(system_cls)[meth]
            self._restore.append((system_cls, meth, original))
            setattr(system_cls, meth, self._wrap(f"space.{meth}", original))
        for ns in (choquet, *mods.values()):
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._restore.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._restore.append((obj, key, value))
                            obj[key] = wrappers[id(value)]

    def uninstall(self):
        for target, name, original in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._restore.clear()

    # -- derived quantities -------------------------------------------------

    def span_table(self):
        """Per span: duration, self time and number of lp.solve spans in its
        subtree (itself included)."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        child = np.zeros_like(dur)
        lp_count = np.array([n == "lp.solve" for n in self.names], dtype=np.int64)
        # children are opened after their parent, so a reverse sweep sees
        # every subtree complete before it is added to the parent
        for i in range(len(self.names) - 1, -1, -1):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                lp_count[p] += lp_count[i]
        return dur, dur - child, lp_count

    def summary(self):
        """Per span name: calls, total self seconds, LPs solved beneath."""
        dur, self_s, lp_count = self.span_table()
        out = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "lp_calls": 0})
            row["calls"] += 1
            row["self_s"] += float(self_s[i])
            row["lp_calls"] += int(lp_count[i])
        return out

    def to_json(self):
        """All spans as columns, for writing out after the run."""
        return {
            "name": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "call": self.calls,
        }
