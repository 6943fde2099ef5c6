"""Span tracing of a package's layers from outside the package.

A `Tracer` replaces public functions and methods of the traced modules with
thin wrappers.  While the tracer is active, each wrapped call records a span
(name, start, end, parent span, raised?) and bumps a per-name call counter;
while it is inactive the wrappers only forward the call.  Names imported into
other modules of the package (``from .seeds import seed_kmn``) are patched
too, so calls are seen whichever module makes them.

Three wrapping modes:

* ``span``  -- every call records a span;
* ``leaf``  -- as ``span``, but a call made while another span of the same
  layer is open is only counted: its time is already covered by that span,
  so the layer's self time is unchanged and the span list stays small;
* ``count`` -- calls are only counted (for functions called so often that a
  span per call would distort the run).

Spans are kept in flat arrays and written out once, at the end of a run.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# operator methods traced alongside the public ones
OPERATOR_METHODS = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    }
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls = array("q")
        self._ids: dict[str, int] = {}
        # one entry per span
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.error = array("b")
        self._stack: list[int] = []
        self._leaf_open: str | None = None
        self._restore: list[tuple[object, str, object]] = []
        self.hooks: dict[str, object] = {}

    # -- bookkeeping --

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
        return nid

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def __len__(self):
        return len(self.start)

    # -- wrappers --

    def wrap(self, fn, name: str, layer: str, mode: str):
        nid = self.name_id(name, layer)
        tracer = self
        calls = self.calls

        if mode == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    calls[nid] += 1
                return fn(*args, **kwargs)

            return counted

        leaf = mode == "leaf"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if leaf and tracer._leaf_open == layer:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.error.append(0)
            tracer.end.append(0)
            stack.append(idx)
            outer_leaf = tracer._leaf_open
            if leaf:
                tracer._leaf_open = layer
            t0 = clock()
            tracer.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer.end[idx] = clock()
                stack.pop()
                tracer._leaf_open = outer_leaf
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(out)
            return out

        return spanned

    def instrument(self, module, layer: str, mode: str, skip_classes=()):
        """Wrap the public functions and public methods of classes defined in `module`."""
        package = module.__name__.split(".")[0]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = self.wrap(obj, f"{layer}.{attr}", layer, mode)
                self._replace_everywhere(package, obj, wrapped)
            elif inspect.isclass(obj) and attr not in skip_classes and not issubclass(obj, BaseException):
                self._instrument_class(obj, layer, mode)

    def _instrument_class(self, cls, layer: str, mode: str):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATOR_METHODS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self.wrap(member.__func__, name, layer, mode))
            elif inspect.isfunction(member):
                wrapped = self.wrap(member, name, layer, mode)
            else:
                continue
            self.patch(cls, attr, wrapped)

    def _replace_everywhere(self, package: str, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.patch(mod, attr, wrapped)

    def patch(self, owner, attr: str, value):
        """Set `owner.attr`, remembering the old value for `uninstall`."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --

    def spans_by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name):
            out.setdefault(self.names[nid], []).append(i)
        return out

    def dump(self, path, t0_ns: int):
        """Write the spans as columns; times in ns relative to `t0_ns`."""
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "raised"],
            "name": list(self.name),
            "start_ns": [s - t0_ns for s in self.start],
            "end_ns": [e - t0_ns for e in self.end],
            "parent": list(self.parent),
            "raised": list(self.error),
            "calls": {n: c for n, c in zip(self.names, self.calls)},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents) -> tuple[list[int], int]:
    """Self time of each span and the union length of the root spans.

    A span's self time is its duration minus the part of it covered by its
    child spans.  The self times of all spans sum to the time covered by the
    root spans.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    roots: list[tuple[int, int]] = []
    for s, e, p in zip(starts, ends, parents):
        (roots if p < 0 else children.setdefault(p, [])).append((s, e))
    out = [e - s for s, e in zip(starts, ends)]
    for p, ivs in children.items():
        out[p] -= covered_ns(ivs)
    return out, covered_ns(roots)


def layer_self_times(tracer: Tracer, wall_ns: int) -> tuple[dict[str, int], int]:
    """Self time per layer and the part of `wall_ns` outside every span."""
    own, rooted = self_times(tracer.start, tracer.end, tracer.parent)
    per_layer: dict[str, int] = {}
    for nid, t in zip(tracer.name, own):
        layer = tracer.layer_of[nid]
        per_layer[layer] = per_layer.get(layer, 0) + t
    return per_layer, wall_ns - rooted
