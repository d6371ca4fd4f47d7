"""Spans and counts at scottlab's module boundaries, recorded from outside.

The layers are the package's modules.  Tracer.install() wraps every
public function of each layer, and every rebinding of it: `from .x
import f` copies the name, so the wrapper replaces the function in every
scottlab module that holds it, not only in its home module.  Methods
called through instances are wrapped on their classes: catalog's
NamedCpo.to_elem and to_label, and stages' LabelMap.__call__, which
also counts projection probes.

A call from one layer into another opens a span (function, start, end,
parent span, request id).  A call within the layer is only counted: it
runs inside a span of its own layer already, so a span would not change
any layer's self time.  Spans are kept in typed arrays, 28 bytes each,
and written out at the end.  A layer's self time is the sum over its
spans of the span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "scottlab"
LAYERS = ("cli", "words", "catalog", "strings", "funcspace", "stages", "adjunction", "replication")
METHODS = (("catalog", "NamedCpo", "to_elem"), ("catalog", "NamedCpo", "to_label"),
           ("stages", "LabelMap", "__call__"))
SPAN_FIELDS = {"request": "i", "parent": "i", "function": "i", "start_ns": "q", "end_ns": "q"}


class Tracer:
    def __init__(self):
        self.modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        self.functions: list[str] = []     # "layer.name" per function id
        self.layer_of: list[int] = []      # layer index per function id
        self.calls: list[int] = []         # every call, within a layer too
        self.spans = {f: array(code) for f, code in SPAN_FIELDS.items()}
        self._open = [-1]                  # open span indices, innermost last
        self._layer = [-1]                 # layer of each open span
        self.request = -1
        self.p_probes = 0
        self.paths_probes = 0              # p probes made inside limit_paths
        self.paths_results: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, qualname: str, layer: int, fn):
        fid = len(self.functions)
        self.functions.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        calls, open_, layers = self.calls, self._open, self._layer
        request, parent, function = (self.spans[f] for f in ("request", "parent", "function"))
        start, end = self.spans["start_ns"], self.spans["end_ns"]
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            i = len(function)
            request.append(tracer.request)
            parent.append(open_[-1])
            function.append(fid)
            end.append(0)
            open_.append(i)
            layers.append(layer)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
                layers.pop()

        return traced

    def _probing(self, call):
        tracer = self

        def label_map_call(m, k):
            if m.to_stage < m.from_stage:
                tracer.p_probes += 1
            return call(m, k)

        return label_map_call

    def _paths_hook(self, fn):
        tracer = self

        def limit_paths(*args, **kwargs):
            before = tracer.p_probes
            out = fn(*args, **kwargs)
            tracer.paths_probes += tracer.p_probes - before
            tracer.paths_results.append(out)
            return out

        return functools.wraps(fn)(limit_paths)

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id of the original -> its wrapper
        for li, name in enumerate(LAYERS):
            mod = self.modules[name]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    inner = self._paths_hook(obj) if (name, attr) == ("stages", "limit_paths") else obj
                    wrappers[id(obj)] = self._wrap(f"{name}.{attr}", li, inner)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            fn = getattr(cls, attr)
            inner = self._probing(fn) if attr == "__call__" else fn
            self._patch(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", LAYERS.index(layer), inner))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def count(self, qualname: str) -> int:
        return self.calls[self.functions.index(qualname)]

    def count_from(self, caller: str, qualname: str) -> int:
        """Calls of a function made directly from another layer's code."""
        fid, li = self.functions.index(qualname), LAYERS.index(caller)
        function, parent = self.spans["function"], self.spans["parent"]
        return sum(1 for i, f in enumerate(function)
                   if f == fid and parent[i] >= 0 and self.layer_of[function[parent[i]]] == li)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: spans entering it and self time in ms."""
        sp = self.spans
        start, end, parent, function = sp["start_ns"], sp["end_ns"], sp["parent"], sp["function"]
        child = array("q", bytes(8 * len(function)))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns = [0] * len(LAYERS)
        entries = [0] * len(LAYERS)
        for i, fid in enumerate(function):
            li = self.layer_of[fid]
            self_ns[li] += end[i] - start[i] - child[i]
            entries[li] += 1
        return {name: {"calls": entries[li], "self_ms": self_ns[li] / 1e6}
                for li, name in enumerate(LAYERS)}

    def paths_extensions(self) -> int:
        """Prefixes limit_paths extended, read off the paths it returned.

        Paths come back sorted, so the prefixes of length L that differ
        are counted by where neighbouring paths first differ.
        """
        total = 0
        for paths in self.paths_results:
            entries = [p.entries for p in paths]
            depth = len(entries[0]) if entries else 0
            total += depth - 1
            for a, b in zip(entries, entries[1:]):
                common = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), depth)
                total += depth - common
        return total

    def write(self, path: Path) -> None:
        """Gzipped: a JSON header line, then each span field as a raw array."""
        header = {"fields": SPAN_FIELDS, "byteorder": sys.byteorder,
                  "count": len(self.spans["function"]), "functions": self.functions}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field in SPAN_FIELDS:
                f.write(self.spans[field])
