"""Outside-in layer tracer for normone.

The program has no tracing of its own yet, so this module wraps the public
functions of each package module from the benchmark's side.  A layer is a
module.  Every wrapped call pushes a frame; a frame whose layer differs from
its caller's also becomes a span (query id, layer, function, start, end,
parent), so nesting inside one layer collapses into the outer span.  A
layer's self time is its spans' durations minus their child spans.

Per-element accessors are left unwrapped: timing a call that does a few
microseconds of work would cost more than the work.  Their time counts
towards the layer that called them.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "structure", "cohomology", "lattices", "groups", "intmat", "reps")

SKIP = {
    "cli": {"main"},
    "groups": {"closure_elements", "index_vector", "vector_index", "is_prime"},
    "reps": {"all_lines", "line_image", "fixes_line_pointwise", "normalize_line",
             "prime_field_root"},
}

# Functions whose exclusive time is reported under a named category.  A
# wrapped call without a category inherits the category of a caller in the
# same layer.
CATEGORY = {
    ("intmat", "RowEchelon.add_rows"): "echelon",
    ("intmat", "RowEchelon.matrix"): "echelon",
    ("intmat", "smith"): "smith",
    ("intmat", "invariant_factors"): "smith",
    ("intmat", "cokernel_torsion"): "smith",
    **{("intmat", n): "lattice" for n in (
        "kernel_basis", "solve", "solve_many", "lattice_intersect", "quotient_group",
        "row_lattice_basis", "column_lattice_basis")},
    **{("cohomology", n): "assembly" for n in (
        "coboundary0_matrix", "coboundary1_rows", "coboundary1_matrix", "apply_coboundary1")},
    ("cohomology", "cocycle2_defect"): "cocycle_check",
    **{("groups", n): "build" for n in (
        "build_group", "semidirect_product", "semidirect_from_action", "direct_product",
        "SubgroupHandle.as_group")},
    ("structure", "classify_two_prime_index"): "classify",
}

METHODS = {"intmat": ("RowEchelon.add_rows", "RowEchelon.matrix"),
           "groups": ("SubgroupHandle.as_group",)}

# Counts that must repeat exactly between two traced passes of one seed.
COUNTS = ("intmat.echelon_rows_in", "intmat.echelon_rank", "intmat.max_entry_bits",
          "intmat.lifted_accumulators", "cohomology.h2_calls", "cohomology.d1_cells_max",
          "cohomology.restrict_members", "groups.max_order", "groups.extend_calls",
          "lattices.max_rank", "reps.group_classes", "reps.subgroups_seen", "cli.queries")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.query_id = None
        self.spans = []  # [query id, layer, name, start, end, parent span index]
        self.stack = []  # frames: [layer, name, category, start, child time, span index]
        self.category_s = {}
        self.report_s = {"theorem": 0.0, "brute": 0.0}  # sums of ShaReport.timing
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"normone.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in SKIP.get(layer, ())):
                    wrapped[id(fn)] = self._wrap(layer, name, fn)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(layer, qual, cls.__dict__[meth]))
        # rebind every name bound by `from .x import y`, the package's too
        targets = list(modules.values()) + [importlib.import_module("normone"),
                                            importlib.import_module("normone.catalog"),
                                            importlib.import_module("normone.selftest")]
        for mod in targets:
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(mod, name, wrapped[id(value)])
        self._reps = modules["reps"]

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        category = CATEGORY.get((layer, name))
        hook = f"{layer}_{name.replace('.', '_')}"
        after = getattr(self, f"_after_{hook}", None) or getattr(self, f"_after_{layer}", None)
        before = getattr(self, f"_before_{hook}", None)
        stack, spans, perf = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            cat = category
            parent = stack[-1] if stack else None
            if before is not None:
                cat = before(args, kwargs) or cat
            if cat is None and parent is not None and parent[0] == layer:
                cat = parent[2]
            span = None
            if parent is None or parent[0] != layer:
                span = len(spans)
                spans.append([self.query_id, layer, name, 0.0, 0.0,
                              None if parent is None else parent[5]])
            frame = [layer, name, cat, 0.0, 0.0, span if span is not None else parent[5]]
            stack.append(frame)
            start = frame[3] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[4] += elapsed
                key = (layer, cat)
                self.category_s[key] = self.category_s.get(key, 0.0) + elapsed - frame[4]
                if span is not None:
                    spans[span][3] = start
                    spans[span][4] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counts at the layer boundaries -----------------------------------------

    def _bump(self, key, value=1):
        self.counts[key] += value

    def _most(self, key, value):
        self.counts[key] = max(self.counts[key], int(value))

    def _after_intmat_RowEchelon_add_rows(self, args, kwargs, result):
        rows = _arg(args, kwargs, 1, "rows")
        shape = getattr(rows, "shape", None) or (len(rows),)
        self._bump("intmat.echelon_rows_in", 1 if len(shape) == 1 else shape[0])

    def _after_intmat_RowEchelon_matrix(self, args, kwargs, result):
        acc = args[0]
        self._bump("intmat.echelon_rank", acc.rank)
        self._bump("intmat.lifted_accumulators", int(acc.dtype is object))
        if result.size:
            self._most("intmat.max_entry_bits", int(abs(result).max()).bit_length())

    def _after_cohomology_cohomology(self, args, kwargs, result):
        G, M, degree = args[0], args[1], _arg(args, kwargs, 2, "degree")
        if degree == 2:
            self._bump("cohomology.h2_calls")
            k, r = G.order - 1, M.rank
            self._most("cohomology.d1_cells_max", (k * k * r) * (k * r))

    def _before_lattices_restrict(self, args, kwargs):
        top = self.stack[-1] if self.stack else None
        if top is not None and top[0] == "cohomology" and top[1] == "sha":
            self._bump("cohomology.restrict_members")

    def _after_lattices(self, args, kwargs, result):
        lat = result[0] if isinstance(result, tuple) and result else result
        rank = getattr(lat, "rank", None)
        if isinstance(rank, int):
            self._most("lattices.max_rank", rank)

    def _after_groups_build_group(self, args, kwargs, result):
        self._most("groups.max_order", result.order)

    def _after_groups_extend_from_generators(self, args, kwargs, result):
        self._bump("groups.extend_calls")

    def _before_reps_exhaustive_scan(self, args, kwargs):
        p = int(_arg(args, kwargs, 0, "p"))
        cold = not any(key[0] == p for key in self._reps._CLASS_CACHE)
        return "cold_scan" if cold else "warm_scan"

    def _after_reps_exhaustive_scan(self, args, kwargs, result):
        self._bump("reps.group_classes", result.group_classes)
        self._bump("reps.subgroups_seen", result.subgroups_seen)

    def _after_structure_sha_full(self, args, kwargs, result):
        for path in self.report_s:
            self.report_s[path] += result.timing.get(path, 0.0)

    def _after_cli_run(self, args, kwargs, result):
        self._bump("cli.queries")

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Per-layer self time from the spans: duration minus child spans."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[5] is not None:
                own[s[5]] -= s[4] - s[3]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            out[s[1]] += t
        return out

    def metrics(self):
        cat = self.category_s
        self_s = self.self_times()
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({
            "intmat.echelon_s": cat.get(("intmat", "echelon"), 0.0),
            "intmat.smith_s": cat.get(("intmat", "smith"), 0.0),
            "intmat.lattice_s": cat.get(("intmat", "lattice"), 0.0),
            "cohomology.assembly_s": cat.get(("cohomology", "assembly"), 0.0),
            "cohomology.cocycle_check_s": cat.get(("cohomology", "cocycle_check"), 0.0),
            "groups.build_s": cat.get(("groups", "build"), 0.0),
            "structure.theorem_s": self.report_s["theorem"],
            "structure.brute_s": self.report_s["brute"],
            "structure.classify_s": cat.get(("structure", "classify"), 0.0),
            "reps.cold_scan_s": cat.get(("reps", "cold_scan"), 0.0),
            "reps.warm_scan_s": cat.get(("reps", "warm_scan"), 0.0),
        })
        m.update(self.counts)
        return m
