"""Spans around the public functions of each package layer, from outside.

`Tracer.install()` replaces each traced function with a wrapper at every
name its callers look it up by (a `from x import f` binding is a separate
name from `x.f`), and `uninstall()` puts the originals back.  A span keeps
its name, start, end and parent in memory until the run ends; a layer's
self time is its spans' duration minus the time their child spans cover.
A traced name that a later version of the package no longer has is
reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time
from array import array
from collections import Counter

# (metric name, owning module, attribute path, modules whose binding to patch)
TRACED = (
    ("cli.run", "cli", "run", ("cli",)),
    ("drawing.validate", "drawing", "Drawing.__post_init__", ()),
    ("drawing.delete", "drawing", "delete_vertices_with_map", ("drawing", "coloring")),
    ("drawing.parse", "drawing", "parse_drawing", ("drawing", "cli")),
    ("drawing.crossing_pairs", "drawing", "Drawing.crossing_pairs", ()),
    ("catalog.find_matches", "catalog", "find_matches", ("catalog", "structure")),
    ("catalog.automorphisms", "catalog", "ConfigPattern.automorphisms", ()),
    ("structure.find_reduction", "structure", "find_reduction", ("structure", "coloring")),
    ("structure.find_structure", "structure", "find_structure", ("structure",)),
    ("structure.find_light_edge", "structure", "find_light_edge", ("structure",)),
    ("coloring.color", "coloring", "color_list_3_dynamic", ("coloring",)),
    ("coloring.extend_step", "coloring", "extend_step", ("coloring",)),
    ("coloring.verify", "coloring", "verify_dynamic", ("coloring",)),
    ("oracle.enumerate", "oracle", "enumerate_drawings", ("oracle",)),
    ("oracle.canonical_key", "oracle", "canonical_key", ("oracle",)),
    ("oracle.chi", "oracle", "has_r_dynamic_k_coloring", ("oracle",)),
    ("generators.random", "generators", "random_outer_1_planar", ("generators",)),
)

PACKAGE = "outer1planar"
REPAIR_LOGGER = "outer1planar.coloring"


class _RepairCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "bounded repair" in record.getMessage():
            self.count += 1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._repairs = _RepairCounter()

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _end(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn, before=None, after=None, span_name=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._begin(span_name(args) if span_name else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self._begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._end(sid)
                self.counts[name + ".drawings"] += 1
                yield item

        return traced

    # -- per-layer hooks -------------------------------------------------

    def _validating(self, args) -> None:
        self.counts["drawing.validate.edges"] += len(args[0].edges)

    def _matched(self, result) -> None:
        self.counts["catalog.find_matches.returned"] += len(result)
        self.counts["catalog.find_matches.nonempty"] += bool(result)

    def _reduced(self, step) -> None:
        self.counts["structure.reduction." + step.kind.split("-")[0]] += 1

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "drawing.validate": {"before": self._validating},
            "catalog.find_matches": {
                "after": self._matched,
                "span_name": lambda args: f"catalog.find_matches.p{args[1].id}",
            },
            "structure.find_reduction": {"after": self._reduced},
        }
        for name, owner, path, bindings in TRACED:
            mod = importlib.import_module(f"{PACKAGE}.{owner}")
            holder, attr = mod, path
            if "." in path:
                cls, attr = path.split(".")
                holder = getattr(mod, cls, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(name, original.func))
                wrapped.__set_name__(holder, attr)
                self._patch(holder, attr, wrapped)
                continue
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap(name, original, **hooks.get(name, {}))
            if holder is not mod:
                self._patch(holder, attr, wrapped)
                continue
            for binder in bindings:
                bmod = importlib.import_module(f"{PACKAGE}.{binder}")
                if getattr(bmod, attr, None) is original:
                    self._patch(bmod, attr, wrapped)
        logging.getLogger(REPAIR_LOGGER).addHandler(self._repairs)

    def _patch(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
        logging.getLogger(REPAIR_LOGGER).removeHandler(self._repairs)

    # -- results -----------------------------------------------------------

    def layers(self) -> tuple[dict[str, float], Counter[str]]:
        """Self time in seconds and call count per span name.

        Per-pattern spans `catalog.find_matches.p<id>` are also summed
        under `catalog.find_matches`.
        """
        total = len(self.span_name)
        child = [0.0] * total
        for sid in range(total):
            up = self.span_parent[sid]
            if up >= 0:
                child[up] += self.span_end[sid] - self.span_start[sid]
        self_s: dict[str, float] = {}
        calls: Counter[str] = Counter()
        for sid in range(total):
            name = self.names[self.span_name[sid]]
            own = self.span_end[sid] - self.span_start[sid] - child[sid]
            keys = [name]
            if name.startswith("catalog.find_matches.p"):
                keys.append("catalog.find_matches")
            for key in keys:
                self_s[key] = self_s.get(key, 0.0) + own
                calls[key] += 1
        return self_s, calls

    def max_peel_depth(self) -> int:
        """Most reductions under one coloring call.

        The peel recursion itself is not traced, so every reduction of one
        `color_list_3_dynamic` call is a direct child of its span.
        """
        color = self._ids.get("coloring.color")
        reduce = self._ids.get("structure.find_reduction")
        per_color: Counter[int] = Counter()
        for sid in range(len(self.span_name)):
            up = self.span_parent[sid]
            if self.span_name[sid] == reduce and up >= 0 and self.span_name[up] == color:
                per_color[up] += 1
        return max(per_color.values(), default=0)

    @property
    def repairs(self) -> int:
        return self._repairs.count
