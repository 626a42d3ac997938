"""Outside-in tracer for the qkahler layers.

The layers are the modules of the package.  `Tracer.install` wraps, from
outside the package, every public function of each layer module and the
arithmetic and public methods of the engine's value classes, then rebinds
every alias of a wrapped function held by a loaded `qkahler.*` module (module
attributes, and function values of module-level dicts such as the suite and
command tables).  No private name of the package is looked up, so renaming or
removing one does not break the tracer.

Time is split between layers at the boundaries: a wrapped call that enters a
layer other than the running one charges the elapsed time to the running
layer and switches; its return switches back.  Each layer's self time is
therefore exact up to the wrapper's own cost, and the self times of all
layers plus `outside` (the caller's code, outside every wrapped call) sum to
the traced wall time.  A call into the same layer only bumps its counter, so
the ~10^6 calls inside `scalars` cost a counter each, not a span.  Every
boundary crossing into a layer other than `scalars` is kept as a span
(function, start, end, parent span) in memory and written out by `dump`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from array import array

LAYERS = ("scalars", "fiber", "linalg", "lefschetz", "hodge", "uqsl2", "su2",
          "verify", "cli")
OUTSIDE = "outside"
# value classes whose methods are traced, by layer
CLASSES = {
    "scalars": ("Scalar", "LaurentPoly", "GaussianRational"),
    "fiber": ("FiberForm",),
    "linalg": ("ScalarMatrix",),
    "hodge": ("GradedOperator",),
}
# dunder methods that do arithmetic or build values; other underscore names
# are left alone
ARITHMETIC = frozenset({
    "__init__", "__eq__", "__neg__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__matmul__",
})
# the public table of suite functions, each timed inclusively
SUITE_TABLE = ("verify", "SUITES")


class Tracer:
    """Counts and times calls into the qkahler layers of this process."""

    def __init__(self):
        self.names = []            # function index -> qualified name
        self.calls = []            # function index -> [count]
        self.self_s = [0.0] * (len(LAYERS) + 1)
        self.incl_s = [0.0] * (len(LAYERS) + 1)
        self.timed_s = {}          # qualified name -> inclusive seconds
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.started = None
        self.stopped = None
        self.paused_s = 0.0
        self.pairs = 0             # sum |u|*|v| over wedges
        self.elim_cells = 0        # sum rows*cols passed to elimination
        self.keys = {"primitive_basis": set(), "gram": set()}
        self._restore = []
        self._wrappers = {}        # id(original) -> (original, wrapper)
        self._state = [len(LAYERS), 0.0, -1]  # running layer, mark, span
        self._enabled = [True]
        self._paused_at = None
        self._active = [0] * (len(LAYERS) + 1)
        self._entered = [0.0] * (len(LAYERS) + 1)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the loaded qkahler layers and start the clock."""
        mods = _layer_modules()
        for li, layer in enumerate(LAYERS):
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    self._set(mod, name, self._wrap(obj, li))
            for cname in CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name not in ARITHMETIC:
                        continue
                    if isinstance(attr, types.FunctionType):
                        self._set(cls, name, self._wrap(attr, li))
                    elif isinstance(attr, staticmethod):
                        self._set(cls, name, staticmethod(self._wrap(attr.__func__, li)))
        suites = getattr(mods[SUITE_TABLE[0]], SUITE_TABLE[1])
        for name, fn in list(suites.items()):
            self._time_inclusive(suites, name, fn, f"verify.suite.{name}")
        self._rebind_aliases()
        self._state[1] = self.started = time.perf_counter()
        return self

    def uninstall(self):
        """Stop the clock and put every original binding back."""
        self.stop()
        for owner, name, old in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)
        self._restore.clear()

    def stop(self):
        if self.stopped is None:
            self.resume()
            self.stopped = time.perf_counter()
            st = self._state
            self.self_s[st[0]] += self.stopped - st[1]
            st[1] = self.stopped

    def pause(self):
        """Let calls through uncounted and untimed until `resume`; for the
        caller's own work between measured calls, such as checking answers."""
        now = time.perf_counter()
        st = self._state
        self.self_s[st[0]] += now - st[1]
        st[1] = self._paused_at = now
        self._enabled[0] = False

    def resume(self):
        if self._paused_at is not None:
            now = time.perf_counter()
            self.paused_s += now - self._paused_at
            self._state[1] = now
            self._paused_at = None
            self._enabled[0] = True

    def _set(self, owner, name, new):
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = new
        else:
            self._restore.append((owner, name, vars(owner)[name]))
            setattr(owner, name, new)

    def _rebind_aliases(self):
        for mod in _package_modules():
            for name, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, name, hit[1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = self._wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set(val, key, hit[1])

    def _time_inclusive(self, table, key, fn, label):
        """Time every call of table[key] inclusively under `label`."""
        original, inner = self._wrappers[id(fn)]
        clock = time.perf_counter
        timed = self.timed_s
        timed[label] = 0.0

        def timed_call(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                timed[label] += clock() - t0

        self._set(table, key, timed_call)
        self._wrappers[id(original)] = (original, timed_call)

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, layer):
        hit = self._wrappers.get(id(fn))
        if hit is not None:
            return hit[1]
        fid = len(self.names)
        name = f"{LAYERS[layer]}.{fn.__qualname__}"
        self.names.append(name)
        count = [0]
        self.calls.append(count)
        hook = _HOOKS.get((LAYERS[layer], fn.__qualname__))
        tracer = self
        state = self._state
        clock = time.perf_counter
        self_s = self.self_s
        incl_s = self.incl_s
        active = self._active
        entered = self._entered
        spans = layer != 0
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        enabled = self._enabled

        def wrapper(*args, **kwargs):
            if not enabled[0]:
                return fn(*args, **kwargs)
            count[0] += 1
            if hook is not None:
                hook(tracer, args)
            if state[0] == layer:
                return fn(*args, **kwargs)
            now = clock()
            prev = state[0]
            self_s[prev] += now - state[1]
            if not active[layer]:
                entered[layer] = now
            active[layer] += 1
            parent = state[2]
            if spans:
                sid = len(span_fn)
                span_fn.append(fid)
                span_parent.append(parent)
                span_start.append(now)
                span_end.append(0.0)
                state[2] = sid
            state[0] = layer
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[layer] += end - state[1]
                active[layer] -= 1
                if not active[layer]:
                    incl_s[layer] += end - entered[layer]
                if spans:
                    span_end[sid] = end
                state[0] = prev
                state[1] = end
                state[2] = parent

        wrapper.__wrapped__ = fn
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__name__ = fn.__name__
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    # -- results ----------------------------------------------------------

    def counts(self) -> dict:
        return {name: c[0] for name, c in zip(self.names, self.calls)}

    def wall_s(self) -> float:
        """Traced time: from install to stop, less the paused time."""
        end = self.stopped if self.stopped is not None else time.perf_counter()
        return end - self.started - self.paused_s

    def layer_self_s(self) -> dict:
        out = {layer: self.self_s[i] for i, layer in enumerate(LAYERS)}
        out[OUTSIDE] = self.self_s[len(LAYERS)]
        return out

    def layer_incl_s(self) -> dict:
        return {layer: self.incl_s[i] for i, layer in enumerate(LAYERS)}

    def summary(self) -> dict:
        """Plain-data totals, as the per-layer metrics are computed from."""
        return {
            "wall_s": self.wall_s(),
            "self_s": self.layer_self_s(),
            "incl_s": self.layer_incl_s(),
            "timed_s": dict(self.timed_s),
            "calls": self.counts(),
            "monomial_pairs": self.pairs,
            "elim_cells": self.elim_cells,
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "spans": len(self.span_fn),
        }

    def dump(self, path):
        """Write the spans (times relative to the start) and the summary."""
        t0 = self.started
        doc = {
            "functions": self.names,
            "spans": {
                "fn": list(self.span_fn),
                "parent": list(self.span_parent),
                "start_us": [round((t - t0) * 1e6) for t in self.span_start],
                "end_us": [round((t - t0) * 1e6) for t in self.span_end],
            },
            "summary": self.summary(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _layer_modules() -> dict:
    # import_module returns the entry of sys.modules; the package attribute
    # `qkahler.hodge` is the function `hodge`, which shadows the submodule.
    return {layer: importlib.import_module(f"qkahler.{layer}") for layer in LAYERS}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qkahler" or name.startswith("qkahler."))]


def _wedge_pairs(tracer, args):
    tracer.pairs += len(args[0].terms) * len(args[1].terms)


def _elim_cells(tracer, args):
    tracer.elim_cells += args[0].nrows * args[0].ncols


def _distinct(key):
    def observe(tracer, args):
        tracer.keys[key].add(args)
    return observe


_HOOKS = {
    ("fiber", "FiberForm.wedge"): _wedge_pairs,
    ("linalg", "rank"): _elim_cells,
    ("linalg", "determinant"): _elim_cells,
    ("linalg", "kernel_basis"): _elim_cells,
    ("linalg", "solve"): _elim_cells,
    ("linalg", "inverse"): _elim_cells,
    ("lefschetz", "primitive_basis"): _distinct("primitive_basis"),
    ("hodge", "gram"): _distinct("gram"),
}
