"""Per-layer tracing from outside the program.

Wrappers are installed from benchmark code around the public functions of
each perscert module. Every name is patched wherever a perscert module looks
it up (``perscert.cli.homology`` as well as ``perscert.invariants.homology``),
and methods are patched on their class. The hottest boundaries only count
calls; the others are spans. Span durations are kept in memory, per boundary
and per layer, as each span closes: a layer's self time is the duration of
its spans minus the part their child spans cover. Everything is reported
when the run ends. A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute, boundary name, mode)
#   span  -- calls, inclusive time, self time for the module's layer
#   count -- calls only (the hottest boundaries); GF2Matrix's static
#            constructors are construction too and are left unwrapped
#   yield -- items yielded by a generator
TARGETS = [
    ("serialize", "decode_object", "serialize.decode", "span"),
    ("serialize", "decode_cert", "serialize.decode", "span"),
    ("serialize", "decode_metric", "serialize.decode", "span"),
    ("serialize", "decode_filtered_complex", "serialize.decode", "span"),
    ("serialize", "decode_barcode", "serialize.decode", "span"),
    ("serialize", "encode_object", "serialize.encode", "span"),
    ("serialize", "encode_cert", "serialize.encode", "span"),
    ("serialize", "encode_filtered_complex", "serialize.encode", "span"),
    ("serialize", "encode_barcode", "serialize.encode", "span"),
    ("serialize", "encode_matching", "serialize.encode", "span"),
    ("serialize", "encode_zigzag", "serialize.encode", "span"),
    ("persist", "check_interleaving", "persist.check_interleaving", "span"),
    ("persist", "PersistentObject.structure_map", "persist.structure_map", "span"),
    ("persist", "Grid.eval_index", "persist.eval_index", "count"),
    ("persist", "compose", "persist.compose", "count"),
    ("persist", "DeltaMorphism.__init__", "persist.delta_morphism.built", "count"),
    ("persist", "PersistentObject.__init__", "persist.object.built", "count"),
    ("persist", "floor_roundtrip_cert", "persist.floor_roundtrip_cert", "span"),
    ("persist", "interleaving_distance_search", "persist.interleaving_distance_search", "span"),
    ("persist", "_search_at_delta", "persist.search_at_delta", "span"),
    ("persist", "_Budget.spend", "persist.search.maps_tried", "count"),
    ("grades", "Grade.__init__", "grades.grade.created", "count"),
    ("grades", "floor_int", "grades.floor_int", "span"),
    ("grades", "even_reindex", "grades.reindex", "span"),
    ("grades", "odd_reindex", "grades.reindex", "span"),
    ("categories", "FinSetCategory.compose", "categories.compose", "count"),
    ("categories", "F2VecCategory.compose", "categories.compose", "count"),
    ("categories", "ComplexCategory.compose", "categories.compose", "count"),
    ("categories", "FinSetCategory.map_equal", "categories.map_equal", "count"),
    ("categories", "F2VecCategory.map_equal", "categories.map_equal", "count"),
    ("categories", "ComplexCategory.map_equal", "categories.map_equal", "count"),
    ("categories", "FinSetCategory.enumerate_maps", "categories.enumerate_maps.yielded", "yield"),
    ("categories", "F2VecCategory.enumerate_maps", "categories.enumerate_maps.yielded", "yield"),
    ("categories", "ComplexCategory.enumerate_maps", "categories.enumerate_maps.yielded", "yield"),
    ("categories", "FinSetCategory.is_map", "categories.is_map", "span"),
    ("categories", "F2VecCategory.is_map", "categories.is_map", "span"),
    ("categories", "ComplexCategory.is_map", "categories.is_map", "span"),
    ("categories", "ComplexCategory.check_object", "categories.check_object", "span"),
    ("categories", "ComplexCategory.is_injective", "categories.is_injective", "span"),
    ("gf2", "GF2Matrix.__init__", "gf2.matrix.created", "count"),
    ("gf2", "GF2Matrix.matmul", "gf2.matmul", "span"),
    ("gf2", "GF2Matrix.rank", "gf2.rank", "span"),
    ("gf2", "GF2Matrix.solve", "gf2.solve", "span"),
    ("gf2", "GF2Matrix.kernel_basis", "gf2.kernel_basis", "span"),
    ("gf2", "GF2Matrix.apply", "gf2.apply", "span"),
    ("gf2", "GF2Matrix.columns", "gf2.columns", "span"),
    ("gf2", "_row_echelon", "gf2.row_echelon", "span"),
    ("gf2", "extend_to_basis", "gf2.extend_to_basis", "span"),
    ("gf2", "all_matrices", "gf2.all_matrices.yielded", "yield"),
    ("complexes", "vietoris_rips", "complexes.build", "span"),
    ("complexes", "to_persistent", "complexes.build", "span"),
    ("complexes", "degree_rips", "complexes.build", "span"),
    ("complexes", "validate", "complexes.validate", "span"),
    ("complexes", "is_filtered", "complexes.is_filtered", "span"),
    ("complexes", "MetricInput.__init__", "complexes.metric", "span"),
    ("invariants", "homology", "invariants.homology", "span"),
    ("invariants", "homology_basis", "invariants.homology_basis", "span"),
    ("invariants", "induced_h_map", "invariants.induced_h_map", "span"),
    ("invariants", "boundary_matrix", "invariants.boundary_matrix", "span"),
    ("invariants", "chain_map_matrix", "invariants.chain_map_matrix", "span"),
    ("invariants", "homology_cert", "invariants.homology_cert", "span"),
    ("invariants", "barcode", "invariants.barcode", "span"),
    ("invariants", "pi0", "invariants.pi0", "span"),
    ("rectify", "zigzag", "rectify.zigzag", "span"),
    ("rectify", "reindex", "rectify.reindex", "count"),
    ("rectify", "even_odd_restrict", "rectify.even_odd_restrict", "span"),
    ("rectify", "_outer_cert", "rectify.outer_cert", "span"),
    ("distances", "bottleneck", "distances.bottleneck", "span"),
    ("distances", "_feasible", "distances.feasible", "count"),
    ("distances", "stability_audit", "distances.stability_audit", "span"),
]

LAYERS = ("cli", "serialize", "persist", "grades", "categories", "gf2", "complexes",
          "invariants", "rectify", "distances")

# Per-layer metrics, with unit and the boundaries they need.
METRICS = [
    ("cli.self_ms", "ms", ()),
    ("serialize.decode_ms", "ms", ("serialize.decode",)),
    ("serialize.encode_ms", "ms", ("serialize.encode",)),
    ("serialize.bytes_in", "bytes", ()),
    ("serialize.bytes_out", "bytes", ()),
    ("serialize.self_ms", "ms", ()),
    ("persist.check_interleaving.calls", "count", ("persist.check_interleaving",)),
    ("persist.check_interleaving_ms", "ms", ("persist.check_interleaving",)),
    ("persist.structure_map.calls", "count", ("persist.structure_map",)),
    ("persist.structure_map_ms", "ms", ("persist.structure_map",)),
    ("persist.eval_index.calls", "count", ("persist.eval_index",)),
    ("persist.compose.calls", "count", ("persist.compose",)),
    ("persist.delta_morphism.built", "count", ("persist.delta_morphism.built",)),
    ("persist.object.built", "count", ("persist.object.built",)),
    ("persist.self_ms", "ms", ()),
    ("persist.search.maps_tried", "count", ("persist.search.maps_tried",)),
    ("persist.search.pairs_checked", "count", ("persist.search_at_delta",)),
    ("persist.search.candidates_refuted", "count", ("persist.search_at_delta",)),
    ("persist.search.useful_ratio", "ratio", ("persist.search_at_delta",)),
    ("grades.grade.created", "count", ("grades.grade.created",)),
    ("grades.self_ms", "ms", ()),
    ("categories.compose.calls", "count", ("categories.compose",)),
    ("categories.map_equal.calls", "count", ("categories.map_equal",)),
    ("categories.enumerate_maps.yielded", "count", ("categories.enumerate_maps.yielded",)),
    ("categories.self_ms", "ms", ()),
    ("gf2.matrix.created", "count", ("gf2.matrix.created",)),
    ("gf2.matmul.calls", "count", ("gf2.matmul",)),
    ("gf2.matmul_ms", "ms", ("gf2.matmul",)),
    ("gf2.rank.calls", "count", ("gf2.rank",)),
    ("gf2.rank_ms", "ms", ("gf2.rank",)),
    ("gf2.solve.calls", "count", ("gf2.solve",)),
    ("gf2.solve_ms", "ms", ("gf2.solve",)),
    ("gf2.kernel_basis.calls", "count", ("gf2.kernel_basis",)),
    ("gf2.kernel_basis_ms", "ms", ("gf2.kernel_basis",)),
    ("gf2.row_echelon.calls", "count", ("gf2.row_echelon",)),
    ("gf2.row_echelon_ms", "ms", ("gf2.row_echelon",)),
    ("gf2.row_echelon.cells", "count", ("gf2.row_echelon",)),
    ("gf2.self_ms", "ms", ()),
    ("complexes.build_ms", "ms", ("complexes.build",)),
    ("complexes.simplices", "count", ("complexes.build",)),
    ("complexes.is_filtered_ms", "ms", ("complexes.is_filtered",)),
    ("complexes.self_ms", "ms", ()),
    ("invariants.homology.calls", "count", ("invariants.homology",)),
    ("invariants.homology_ms", "ms", ("invariants.homology",)),
    ("invariants.homology_basis.calls", "count", ("invariants.homology_basis",)),
    ("invariants.homology_basis_ms", "ms", ("invariants.homology_basis",)),
    ("invariants.homology_basis.distinct_ratio", "ratio", ("invariants.homology_basis",)),
    ("invariants.induced_h_map.calls", "count", ("invariants.induced_h_map",)),
    ("invariants.induced_h_map_ms", "ms", ("invariants.induced_h_map",)),
    ("invariants.barcode_ms", "ms", ("invariants.barcode",)),
    ("invariants.pi0_ms", "ms", ("invariants.pi0",)),
    ("invariants.self_ms", "ms", ()),
    ("rectify.zigzag_ms", "ms", ("rectify.zigzag",)),
    ("rectify.reindex.calls", "count", ("rectify.reindex",)),
    ("rectify.self_ms", "ms", ()),
    ("distances.bottleneck.calls", "count", ("distances.bottleneck",)),
    ("distances.bottleneck_ms", "ms", ("distances.bottleneck",)),
    ("distances.feasible.calls", "count", ("distances.feasible",)),
    ("distances.stability_audit_ms", "ms", ("distances.stability_audit",)),
    ("distances.self_ms", "ms", ()),
    ("trace.overhead_frac", "ratio", ()),
]


# derived metrics computed by the hooks on each boundary
HOOK_METRICS = {
    "gf2.row_echelon": ("gf2.row_echelon.cells",),
    "invariants.homology_basis": ("invariants.homology_basis.distinct_ratio",),
    "complexes.build": ("complexes.simplices",),
    "persist.check_interleaving": ("persist.search.pairs_checked", "persist.search.useful_ratio"),
    "persist.search_at_delta": ("persist.search.candidates_refuted", "persist.search.useful_ratio"),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)      # boundary -> calls (or items yielded)
        self.incl_ns = defaultdict(int)    # boundary -> time in its outermost spans
        self.depth = defaultdict(int)      # boundary -> open spans
        self.self_ns = defaultdict(int)    # layer -> self time
        self.stack = [0]                   # child time of each open span
        self.extra = defaultdict(int)      # derived counts (cells, simplices, ...)
        self.distinct = set()              # distinct homology_basis arguments
        self.present = set()
        self.absent = []
        self.broken = set()                # derived metrics whose hook failed
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, layer, before=None, after=None):
        tracer, stack, clock = self, self.stack, time.perf_counter_ns
        calls, depth, incl, self_ns = self.calls, self.depth, self.incl_ns, self.self_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if before is not None:
                before(args, kwargs)
            depth[name] += 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                self_ns[layer] += dur - child
                depth[name] -= 1
                if depth[name] == 0:
                    incl[name] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, fn, name):
        tracer, calls = self, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield(self, fn, name):
        tracer, calls = self, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.active:
                    calls[name] += 1
                yield item

        return wrapper

    def request(self, fn):
        """Run one request as the root span of the cli layer."""
        stack, clock = self.stack, time.perf_counter_ns
        self.active = True
        stack.append(0)
        t0 = clock()
        try:
            return fn()
        finally:
            dur = clock() - t0
            self.self_ns["cli"] += dur - stack.pop()
            self.active = False

    # -- hooks for derived counts -----------------------------------------

    def _guarded(self, hook, metrics):
        """A hook that cannot fail the run: if a later signature breaks it,
        the metrics it feeds are reported as absent."""
        if hook is None:
            return None

        def run(*args):
            try:
                hook(*args)
            except Exception:  # the program changed under the hook
                self.broken.update(metrics)

        return run

    def _hooks(self, name):
        before, after = self._raw_hooks(name)
        fed = HOOK_METRICS.get(name, ())
        return self._guarded(before, fed), self._guarded(after, fed)

    def _raw_hooks(self, name):
        extra = self.extra
        if name == "gf2.row_echelon":
            def before(args, kwargs):
                rows = args[0]
                ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
                if ncols is None:
                    ncols = len(rows[0]) if rows else 0
                extra["gf2.row_echelon.cells"] += len(rows) * ncols
            return before, None
        if name == "invariants.homology_basis":
            def before(args, kwargs):
                self.distinct.add((args[0], args[1]))
            return before, None
        if name == "complexes.build":
            def after(result):
                simplices = getattr(result, "simplices", None)
                if simplices is not None:
                    extra["complexes.simplices"] += len(simplices)
            return None, after
        if name == "persist.check_interleaving":
            def before(args, kwargs):
                if self.depth["persist.search_at_delta"]:
                    extra["persist.search.pairs_checked"] += 1
            return before, None
        if name == "persist.search_at_delta":
            def after(result):
                key = "persist.search.refuted" if result is None else "persist.search.found"
                extra[key] += 1
            return None, after
        return None, None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import perscert.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "perscert" or n.startswith("perscert."))]
        for module, attr, name, mode in TARGETS:
            mod = sys.modules.get(f"perscert.{module}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = owner.__dict__.get(member) if owner is not None else None
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if not callable(fn):
                self.absent.append(f"perscert.{module}.{attr}")
                continue
            self.present.add(name)
            if mode == "count":
                wrapper = self._count(fn, name)
            elif mode == "yield" or inspect.isgeneratorfunction(fn):
                wrapper = self._yield(fn, name)
            else:
                wrapper = self._span(fn, name, module, *self._hooks(name))
            if owner_name:
                self._set(owner, member, staticmethod(wrapper) if is_static else wrapper)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- report -----------------------------------------------------------

    def metrics(self, bytes_in: int, bytes_out: int, overhead_frac: float):
        """(metrics dict, absent metric names), every METRICS name present."""
        ms = 1e-6
        calls, incl, extra = self.calls, self.incl_ns, self.extra
        found = extra["persist.search.found"]
        refuted = extra["persist.search.refuted"]
        pairs = extra["persist.search.pairs_checked"]
        hb_calls = calls["invariants.homology_basis"]
        values = {
            "serialize.bytes_in": bytes_in,
            "serialize.bytes_out": bytes_out,
            "persist.search.pairs_checked": pairs,
            "persist.search.candidates_refuted": refuted,
            "persist.search.useful_ratio": found / pairs if pairs else 0.0,
            "gf2.row_echelon.cells": extra["gf2.row_echelon.cells"],
            "complexes.simplices": extra["complexes.simplices"],
            "invariants.homology_basis.distinct_ratio":
                len(self.distinct) / hb_calls if hb_calls else 0.0,
            "trace.overhead_frac": overhead_frac,
        }
        out, absent = {}, []
        for metric, unit, needs in METRICS:
            if metric in self.broken or any(n not in self.present for n in needs):
                absent.append(metric)
                out[metric] = {"value": 0, "unit": unit}
                continue
            if metric in values:
                value = values[metric]
            elif metric.endswith(".self_ms"):
                value = self.self_ns[metric[: -len(".self_ms")]] * ms
            elif metric.endswith("_ms"):
                value = incl[metric[: -len("_ms")]] * ms
            elif metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]]
            else:
                value = calls[metric]
            out[metric] = {"value": value, "unit": unit}
        return out, absent

    def boundaries(self) -> dict:
        """Every boundary's calls and inclusive time, for the trace file."""
        names = sorted(set(self.calls) | set(self.incl_ns))
        return {n: {"calls": self.calls[n], "incl_ms": self.incl_ns[n] * 1e-6} for n in names}

    def layer_self_ms(self) -> dict:
        return {layer: self.self_ns[layer] * 1e-6 for layer in LAYERS}
