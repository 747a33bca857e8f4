"""Span tracing of localelab's layer modules, installed from outside the package.

Every public function of a layer module is replaced, at every name that binds
it anywhere inside ``localelab``, by a wrapper that records one span per call:
name, start, end and the id of the enclosing span.  ``from .x import y`` copies
``y`` into the importing module, so rebinding only the definition would miss
the calls that other layers make through their own copies.

Methods (notably the high-volume ``SublocaleLattice`` ones) and generator
functions stay unwrapped; their time lands in the self time of the caller.
Spans live in flat arrays in memory and are written out once, after the run.
"""
from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array

LAYERS = ("corpus", "lattice", "maps", "sublocales", "interior", "hops", "points", "serialize")

# the twenty harness checks, in the order `localelab verify` runs them
CHECK_IDS = (
    "poset-counts", "heyting-adjunction", "heyting-identities", "complement-laws",
    "generation-property", "sublocale-join-oracle", "galois-adjunction",
    "boolean-fragment", "interior-axioms", "h-axioms", "contractive-equivalence",
    "composition-interior", "composition-h", "initial-interior", "initial-h",
    "coarseness", "universal-property-interior", "universal-property-h",
    "open-preimage", "points-spatiality",
)

HARNESS = "verify"


def _self_s(layer, *functions):
    return [(f"{layer}.{fn}.self_s", "s") for fn in functions] + [(f"{layer}.self_s", "s")]


# Every per-layer metric a traced run prints, with its unit, in print order.
PER_LAYER = (
    [("corpus.posets", "count")]
    + _self_s("corpus", "all_posets", "corpus_frames")
    + _self_s("lattice", "downset_frame", "heyting_identity_report")
    + [
        ("maps.enumerate_frame_homs.calls", "count"),
        ("maps.check_frame_hom.calls", "count"),
        ("maps.hom_candidates", "count"),
        ("maps.homs_found", "count"),
        ("maps.hom_yield", "ratio"),
    ]
    + _self_s("maps", "enumerate_frame_homs", "check_frame_hom", "right_adjoint",
              "left_adjoint", "localic_map")
    + [
        ("sublocales.enumerate_sublocales.calls", "count"),
        ("sublocales.sl_cache_hit_ratio", "ratio"),
        ("sublocales.transfer_of.calls", "count"),
        ("sublocales.transfer_cache_hit_ratio", "ratio"),
    ]
    + _self_s("sublocales", "enumerate_sublocales", "transfer_of", "check_adjunction",
              "generation_check")
    + [
        ("interior.initial_interior.calls", "count"),
        ("interior.initial_interior.p50_ms", "ms"),
        ("interior.initial_interior.p99_ms", "ms"),
    ]
    + _self_s("interior", "initial_interior", "check_interior", "random_op",
              "make_continuous_op", "is_I_continuous", "check_composition",
              "check_universal_property", "check_open_preimage")
    + [
        ("hops.initial_h.calls", "count"),
        ("hops.initial_h.p50_ms", "ms"),
        ("hops.initial_h.p99_ms", "ms"),
        ("hops.complemented_fragment.calls", "count"),
        ("hops.fragment_cache_hit_ratio", "ratio"),
    ]
    + _self_s("hops", "initial_h", "check_h", "random_h", "h_from_interior",
              "is_h_continuous", "check_h_composition", "check_h_universal")
    + [
        ("points.points_of.calls", "count"),
        ("points.assignments_scanned", "count"),
        ("points.point_yield", "ratio"),
    ]
    + _self_s("points", "points_of", "is_spatial", "spatialization")
    + [("serialize.frame_to_json.calls", "count")]
    + _self_s("serialize", "frame_to_json", "save_json")
    + [(f"verify.check.{cid}.s", "s") for cid in CHECK_IDS]
    + [
        ("verify.self_s", "s"),
        ("verify.maps", "count"),
        ("verify.map_pairs_skipped", "count"),
        ("verify.operators", "count"),
        ("verify.registry_occurrences", "count"),
        ("trace.wall_s", "s"),
        ("trace.setup_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)

# private lru caches whose hit ratios are reported: (module, attribute, metric)
CACHES = (
    ("sublocales", "_enumerate", "sublocales.sl_cache_hit_ratio"),
    ("sublocales", "_transfer_cached", "sublocales.transfer_cache_hit_ratio"),
    ("hops", "complemented_fragment", "hops.fragment_cache_hit_ratio"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans for wrapped calls; `install` does the wrapping."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.hom_calls: list[tuple] = []  # (source frame, target frame, homs found)
        self._originals: dict[str, object] = {}
        self._modules: dict[str, object] = {}

    # -- recording --------------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        sid = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def wrap(self, name, fn, observe=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- boundary counts, taken from call arguments and results -----------------

    def _observe_homs(self, args, kwargs, result):
        source = _arg(args, kwargs, 0, "source")
        target = _arg(args, kwargs, 1, "target")
        self.count("maps.hom_candidates", target.n ** source.n)
        self.count("maps.homs_found", len(result))
        self.hom_calls.append((source, target, len(result)))

    def _observe_points(self, args, kwargs, result):
        n = _arg(args, kwargs, 0, "frame").n
        self.count("points.assignments_scanned", 1 << max(n - 2, 0))
        self.count("points.points_found", len(result))

    # -- installation -------------------------------------------------------------

    def install(self):
        """Wrap every public layer function and every harness check."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "localelab" or name.startswith("localelab.")}
        observers = {
            "maps.enumerate_frame_homs": self._observe_homs,
            "points.points_of": self._observe_points,
        }
        for layer in LAYERS:
            mod = package[f"localelab.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = fn
                traced = self.wrap(name, fn, observers.get(name))
                for other in package.values():
                    for binding, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, binding, traced)
        checks = package["localelab.verify"].CHECKS
        for cid, fn in list(checks.items()):
            checks[cid] = self.wrap(f"{HARNESS}.check.{cid}", fn)
        self._modules = package

    def cache_ratios(self):
        out = {}
        for layer, attr, metric in CACHES:
            fn = self._originals.get(f"{layer}.{attr}") or getattr(
                self._modules[f"localelab.{layer}"], attr)
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[metric] = info.hits / lookups if lookups else 0.0
        return out

    # -- analysis -------------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus what its child spans cover."""
        n = len(self.span_name)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        own = array("d", (end[i] - start[i] for i in range(n)))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def metrics(self, extra):
        """Every PER_LAYER metric, from the spans, counters and caches.

        `extra` supplies what the trace cannot see: the corpus size and the
        harness report counts.  Also returns the self time of each layer and
        the total time of the root spans, which those self times add up to.
        """
        own = self.self_times()
        by_name: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, list] = {}
        layer_self = {layer: 0.0 for layer in LAYERS + (HARNESS,)}
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            duration = self.span_end[i] - self.span_start[i]
            by_name[name] = by_name.get(name, 0.0) + own[i]
            inclusive[name] = inclusive.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if name in ("interior.initial_interior", "hops.initial_h"):
                durations.setdefault(name, []).append(duration)
            head = name.split(".", 1)[0]
            layer_self[head if head in layer_self else HARNESS] += own[i]
        total = sum(self.span_end[i] - self.span_start[i]
                    for i in range(len(self.span_name)) if self.span_parent[i] < 0)
        accounted = sum(layer_self.values())
        if not math.isclose(accounted, total, rel_tol=1e-9, abs_tol=1e-9):
            raise AssertionError(f"self times sum to {accounted}, root spans to {total}")

        values = dict(extra)
        values.update(self.cache_ratios())
        values.update(self.counters)
        cand = self.counters.get("maps.hom_candidates", 0)
        values["maps.hom_yield"] = self.counters.get("maps.homs_found", 0) / cand if cand else 0.0
        scanned = self.counters.get("points.assignments_scanned", 0)
        found = self.counters.get("points.points_found", 0)
        values["points.point_yield"] = found / scanned if scanned else 0.0
        values["trace.spans"] = len(self.span_name)
        values["trace.setup_s"] = inclusive.get("setup", 0.0)
        values["trace.wall_s"] = inclusive.get("workload", 0.0)
        for layer, seconds in layer_self.items():
            values[f"{layer}.self_s"] = seconds
        for name, ds in durations.items():
            ds.sort()
            values[f"{name}.p50_ms"] = 1e3 * _quantile(ds, 0.50)
            values[f"{name}.p99_ms"] = 1e3 * _quantile(ds, 0.99)
        out = {}
        for metric, unit in PER_LAYER:
            if metric in values:
                value = values[metric]
            elif metric.startswith(f"{HARNESS}.check."):
                value = inclusive.get(metric[:-2], 0.0)
            else:
                function, stat = metric.rsplit(".", 1)
                table = {"calls": calls, "self_s": by_name}.get(stat, {})
                value = table.get(function, 0)
            out[metric] = {"value": value, "unit": unit}
        return out, layer_self, total

    def dump(self, path):
        """Write every span as [name, start, end, parent id], ids by position."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": [[self.names[self.span_name[i]], self.span_start[i],
                           self.span_end[i], self.span_parent[i]]
                          for i in range(len(self.span_name))],
            }, fh, separators=(",", ":"))


def _quantile(sorted_values, q):
    """Nearest-rank quantile of a sorted, non-empty list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]
