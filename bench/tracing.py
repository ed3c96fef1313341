"""Spans and counters around the calls younglat's modules make into each
other, installed from outside the package.

The layers are the package modules ``partitions``, ``poset``, ``scd``,
``render`` and ``cli``.  Every function one module imports from another and
calls (``cli`` -> ``poset``/``scd``/``render``, ``scd`` -> ``partitions``,
...) is replaced in the importing module's namespace by a wrapper, and
``GradedPoset.__init__`` and ``ChainDecomposition.__init__`` are wrapped on
their classes.  Coarse calls (one per command) get spans: name, start, end,
parent span and request id, kept in memory.  Per-element calls (cover
generation, key formatting and parsing) get counters that accumulate calls
and seconds, because a span per element would cost more than the work.
``roots`` is reached only through ``ColorMap.default`` and stays unwrapped.

A layer's self time is the time of its spans and counters minus the time
covered by the spans and counters nested inside them.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter
from time import perf_counter


def _encoded(result) -> int:
    return len(result.encode("utf-8"))


# qualified name -> (span name, facts(result, args) -> Counter of counts)
SPANS = {
    "younglat.poset.build_lattice": (
        "poset.build_lattice",
        lambda r, a: Counter({"poset.build_lattice.elements": len(r),
                              "poset.build_lattice.covers": len(r.covers)})),
    "younglat.poset.serialize_poset": (
        "poset.serialize_poset",
        lambda r, a: Counter({"poset.serialize_poset.bytes": _encoded(r)})),
    "younglat.poset.parse_poset": (
        "poset.parse_poset",
        lambda r, a: Counter({"poset.parse_poset.bytes": _encoded(a[0])})),
    "younglat.poset.gaussian_binomial": ("poset.gaussian_binomial", None),
    "younglat.poset.check_splitting_identities": ("poset.check_splitting_identities", None),
    "younglat.poset.GradedPoset.__init__": ("poset.GradedPoset", None),
    "younglat.scd.ChainDecomposition.__init__": ("scd.ChainDecomposition", None),
    "younglat.scd.lindstrom": (
        "scd.lindstrom", lambda r, a: Counter({"scd.lindstrom.chains": len(r)})),
    "younglat.scd.scd_n2": ("scd.scd_n2", None),
    "younglat.scd.brute_force_scd": (
        "scd.brute_force_scd",
        lambda r, a: Counter({"scd.brute_force_scd.assignments": r.assignments,
                              "scd.brute_force_scd.found": r.status == "found"})),
    "younglat.scd.verify_scd": (
        "scd.verify_scd",
        lambda r, a: Counter({"scd.verify_scd.keys": sum(map(len, a[0].chains))})),
    "younglat.scd.serialize_decomposition": (
        "scd.serialize_decomposition",
        lambda r, a: Counter({"scd.serialize_decomposition.bytes": _encoded(r)})),
    "younglat.scd.parse_decomposition": ("scd.parse_decomposition", None),
    "younglat.render.to_dot": (
        "render.to_dot", lambda r, a: Counter({"render.to_dot.bytes": _encoded(r)})),
    "younglat.render.to_svg": (
        "render.to_svg", lambda r, a: Counter({"render.to_svg.bytes": _encoded(r)})),
}

# qualified name -> counter name; several functions can share one counter
COUNTERS = {
    "younglat.partitions.enumerate_compositions": "partitions.enumerate",
    "younglat.partitions.partitions_in_box": "partitions.enumerate",  # under build_lattice
    "younglat.partitions.composition_lower_covers": "partitions.lower_covers",
    "younglat.partitions.lower_covers": "partitions.lower_covers",
    "younglat.partitions.format_composition": "partitions.format",
    "younglat.partitions.format_partition": "partitions.format",
    "younglat.partitions.parse_composition": "partitions.parse_composition",
    "younglat.partitions.from_multiplicity": "partitions.from_multiplicity",
    "younglat.partitions.to_multiplicity": "partitions.to_multiplicity",
    "younglat.partitions.weighted_sum": "partitions.weighted_sum",
}

GENERATORS = {"younglat.partitions.partitions_in_box"}
LAYERS = ("cli", "partitions", "poset", "scd", "render")
# functions whose allocations the memory pass measures, as bound in younglat.cli
PEAKS = {"build_lattice": "poset.build_lattice.peak_mb",
         "parse_poset": "poset.parse_poset.peak_mb"}

# Every per-layer metric, in report order.  Values are totals over one
# traced round unless the name says otherwise.
PER_LAYER = (
    ("partitions.enumerate.s", "s"), ("partitions.enumerate.calls", "count"),
    ("partitions.lower_covers.s", "s"), ("partitions.lower_covers.calls", "count"),
    ("partitions.format.s", "s"), ("partitions.format.calls", "count"),
    ("partitions.parse_composition.s", "s"), ("partitions.parse_composition.calls", "count"),
    ("partitions.from_multiplicity.s", "s"), ("partitions.from_multiplicity.calls", "count"),
    ("partitions.to_multiplicity.s", "s"), ("partitions.weighted_sum.s", "s"),
    ("poset.GradedPoset.s", "s"),
    ("poset.build_lattice.s", "s"), ("poset.build_lattice.elements", "count"),
    ("poset.build_lattice.covers", "count"), ("poset.build_lattice.peak_mb", "MB"),
    ("poset.serialize_poset.s", "s"), ("poset.serialize_poset.bytes", "bytes"),
    ("poset.parse_poset.s", "s"), ("poset.parse_poset.bytes", "bytes"),
    ("poset.parse_poset.peak_mb", "MB"),
    ("poset.gaussian_binomial.s", "s"), ("poset.check_splitting_identities.s", "s"),
    ("scd.ChainDecomposition.s", "s"),
    ("scd.lindstrom.s", "s"), ("scd.lindstrom.chains", "count"),
    ("scd.scd_n2.s", "s"),
    ("scd.brute_force_scd.s", "s"), ("scd.brute_force_scd.assignments", "count"),
    ("scd.brute_force_scd.assignments_per_s", "1/s"),
    ("scd.brute_force_scd.found_ratio", "ratio"),
    ("scd.verify_scd.s", "s"), ("scd.verify_scd.keys_per_s", "1/s"),
    ("scd.serialize_decomposition.s", "s"), ("scd.serialize_decomposition.bytes", "bytes"),
    ("scd.parse_decomposition.s", "s"),
    ("render.to_dot.s", "s"), ("render.to_dot.bytes", "bytes"),
    ("render.to_svg.s", "s"), ("render.to_svg.bytes", "bytes"),
    ("cli.self_s", "s"), ("partitions.self_s", "s"), ("poset.self_s", "s"),
    ("scd.self_s", "s"), ("render.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_ms", "ms"), ("trace.overhead_ratio", "ratio"),
)


def _qualname(obj) -> str:
    return f"{getattr(obj, '__module__', '')}.{getattr(obj, '__qualname__', '')}"


class Tracer:
    """In-memory spans, counters and per-layer self time for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, request]
        self.request = None              # id stamped on spans opened from now on
        self.counters: dict[str, list] = {}   # name -> [calls, seconds]
        self.facts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []       # indices of open spans
        self._inner: list[float] = []    # per open span: time its children took
        self._patches: list[tuple] = []

    def _layer_time(self, layer: str, own: float, total: float) -> None:
        self.self_s[layer] += own
        if self._inner:
            self._inner[-1] += total

    def span(self, name: str, fn, facts=None):
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            self._open.append(len(self.spans))
            self._inner.append(0.0)
            record = [name, perf_counter(), None, parent, self.request]
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
                took = record[2] - record[1]
                self._layer_time(layer, took - self._inner.pop(), took)
            if facts is not None:
                self.facts.update(facts(result, args))
            return result

        return wrapper

    def counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0, 0.0])
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                cell[0] += 1
                cell[1] += took
                self._layer_time(layer, took, took)

        return wrapper

    def generator_counter(self, name: str, fn):
        """Counter for a generator function: times each step of the iteration.
        Calls from outside ``poset.build_lattice`` (the element sets that
        ``check_splitting_identities`` enumerates) count only as layer time."""
        counted = self.counters.setdefault(name, [0, 0.0])
        uncounted = [0, 0.0]
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            inside = self._open and self.spans[self._open[-1]][0] == "poset.build_lattice"
            cell = counted if inside else uncounted
            cell[0] += 1
            steps = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    took = perf_counter() - start
                    cell[1] += took
                    self._layer_time(layer, took, took)
                yield item

        return wrapper

    def peak(self, name: str, fn):
        """Largest traced allocation total while ``fn`` runs, in MB."""

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)

        return wrapper

    # -- installing and removing wrappers -----------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every cross-module call named in SPANS and COUNTERS."""
        for layer in ("cli", "poset", "scd", "render"):
            module = sys.modules[f"younglat.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not callable(obj) or getattr(obj, "__module__", None) == module.__name__:
                    continue
                key = _qualname(obj)
                if key in SPANS:
                    name, facts = SPANS[key]
                    self._patch(module, attr, self.span(name, obj, facts))
                elif key in COUNTERS:
                    make = self.generator_counter if key in GENERATORS else self.counter
                    self._patch(module, attr, make(COUNTERS[key], obj))
        for owner in (sys.modules["younglat.poset"].GradedPoset,
                      sys.modules["younglat.scd"].ChainDecomposition):
            name, facts = SPANS[_qualname(owner.__init__)]
            self._patch(owner, "__init__", self.span(name, owner.__init__, facts))

    def install_peaks(self) -> None:
        cli = sys.modules["younglat.cli"]
        for attr, name in PEAKS.items():
            self._patch(cli, attr, self.peak(name, getattr(cli, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s: float, untraced_s: float) -> dict[str, float]:
        """Every PER_LAYER metric; the overhead is the traced pass's command
        time minus ``untraced_s``, that of the same commands untraced."""
        values: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            values[name + ".s"] += end - start
        for name, (calls, seconds) in self.counters.items():
            values[name + ".calls"] += calls
            values[name + ".s"] += seconds
        values.update(self.facts)
        for layer in LAYERS:
            values[layer + ".self_s"] = self.self_s[layer]
        brute_s = values["scd.brute_force_scd.s"]
        brute_calls = sum(1 for s in self.spans if s[0] == "scd.brute_force_scd")
        values["scd.brute_force_scd.assignments_per_s"] = (
            values["scd.brute_force_scd.assignments"] / brute_s if brute_s else 0.0)
        values["scd.brute_force_scd.found_ratio"] = (
            values["scd.brute_force_scd.found"] / brute_calls if brute_calls else 0.0)
        verify_s = values["scd.verify_scd.s"]
        values["scd.verify_scd.keys_per_s"] = (
            values["scd.verify_scd.keys"] / verify_s if verify_s else 0.0)
        values["trace.spans"] = len(self.spans)
        values["trace.overhead_ms"] = overhead_s * 1000
        values["trace.overhead_ratio"] = overhead_s / untraced_s
        return {name: values[name] for name, _ in PER_LAYER}
