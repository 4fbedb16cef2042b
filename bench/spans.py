"""Spans around calls into unical's layers, recorded from outside the program.

`install` replaces each traced public function by a wrapper in every
unical module namespace that binds it, so calls between unical's own
modules are caught too. Modules import names directly, and the package
attribute `unical.convert` is the function, not the module, so modules
are reached through sys.modules; a module not imported yet is not
traced. ExponentMap is a class; its constructions
are counted by wrapping `__init__`.

Spans stay in memory until the run ends; `layer_totals` then computes
each span's self time (its duration minus that of its direct children)
and sums it per layer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, function, layer name); print_* functions share one layer.
TRACED = (
    ("unical.model", "evaluate", "model.evaluate"),
    ("unical.convert", "analyze", "convert.analyze"),
    ("unical.convert", "rwr_eval", "convert.rwr_eval"),
    ("unical.convert", "convert", "convert.convert"),
    ("unical.convert", "classify", "convert.classify"),
    ("unical.convert", "explore_closure", "convert.explore_closure"),
    ("unical.registry", "parse_document", "registry.parse_document"),
    ("unical.registry", "build_system", "registry.build_system"),
    ("unical.registry", "parse_unit", "registry.parse_unit"),
    ("unical.registry", "print_unit", "registry.print"),
    ("unical.registry", "print_root", "registry.print"),
    ("unical.registry", "print_prefix", "registry.print"),
    ("unical.registry", "print_dimension", "registry.print"),
    ("unical.registry", "print_normalized", "registry.print"),
    ("unical.registry", "print_evaluated", "registry.print"),
    ("unical.numeric", "ratio_parse", "numeric.ratio_parse"),
    ("unical.numeric", "ratio_to_decimal", "numeric.ratio_to_decimal"),
    ("unical.cli", "main", "cli.main"),
)


class Tracer:
    """Spans and counters of one process; `query_id` tags the spans opened next."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.query_id = -1
        self.exponent_maps = 0  # constructed while a query runs
        self.closures: list[tuple[int, bool]] = []  # (population, truncated)
        self._restore: list = []

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def wrap(self, name: str, fn):
        layer = self._layer_id(name)
        clock = time.perf_counter
        records_closure = name == "convert.explore_closure"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.layer.append(layer)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.query.append(self.query_id)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
            if records_closure:
                self.closures.append((len(result.triples), bool(result.truncated)))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "unical" or n.startswith("unical.")]
        for module_name, attribute, name in TRACED:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attribute)
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))
        exponent_map = sys.modules["unical.abelian"].ExponentMap
        original_init = exponent_map.__init__

        def counted_init(map_self, *args, **kwargs):
            if self.query_id >= 0:
                self.exponent_maps += 1
            original_init(map_self, *args, **kwargs)

        exponent_map.__init__ = counted_init
        self._restore.append((exponent_map, "__init__", original_init))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def layer_totals(self) -> dict:
        """Per layer: [calls, self seconds] over all spans, then over query spans.

        Spans recorded while `query_id` is negative (a registry load ahead
        of the queries) count only in the first pair.
        """
        count = len(self.start)
        child_time = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        totals: dict = {}
        for i in range(count):
            entry = totals.setdefault(self.layers[self.layer[i]], [0, 0.0, 0, 0.0])
            own = self.end[i] - self.start[i] - child_time[i]
            entry[0] += 1
            entry[1] += own
            if self.query[i] >= 0:
                entry[2] += 1
                entry[3] += own
        return totals

    def summary(self) -> dict:
        """Everything the parent needs, as plain JSON-able values."""
        return {
            "layers": self.layer_totals(),
            "exponent_maps": self.exponent_maps,
            "closures": self.closures,
        }
