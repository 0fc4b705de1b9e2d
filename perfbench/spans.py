"""Spans and counts at the boundaries between homlattice's modules.

``Tracer.install`` replaces each listed public function, in every loaded
``homlattice`` module that binds it, with a wrapper that records a span
(name, start, end, parent) and a count taken from the call's result.
Spans stay in memory until the traced process ends. The program itself is
not changed; a boundary whose function no longer exists is reported as
absent.
"""

import functools
import importlib.util
import json
import sys
import time

# (module, function, what to keep from the result); None keeps nothing.
SPANNED = (
    ("restrictions", "apply_restriction", lambda g: g.m),
    ("restrictions", "restriction_minors", None),
    ("flats", "enumerate_flats", lambda lat: len(lat.flats)),
    ("flats", "compute_mobius", None),
    ("graphs", "quotient", lambda g: g.is_loop_free()),
    ("graphs", "canonical_form", lambda key: key),
    ("graphs", "canonical_representative", None),
    ("basis", "expand", lambda e: len(e.terms)),
    ("basis", "evaluate", None),
    ("treedp", "hom_count", None),
    ("treedp", "treewidth_exact", lambda r: r[0]),
    ("treedp", "validate_decomposition", None),
    ("treedp", "make_nice", lambda td: len(td.bags)),
    ("treedp", "count_homomorphisms", None),
    ("permtree", "verify_permanent_identity", None),
    ("cli", "parse_graph", None),
    ("cli", "parse_manifest", None),
    ("permtree", "parse_matrix", None),
)
# Boundaries that only count: a generator counted per item, and a builder
# counted by the vertices it returns.
COUNTED = (
    ("flats", "iter_set_partitions", "items"),
    ("permtree", "build_gadget", "vertices"),
)

class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, kept]
        self.counts = {}
        self.absent = []
        self._stack = []

    def install(self):
        """Wrap every boundary in all loaded homlattice modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "homlattice" or name.startswith("homlattice.")]
        for mod, func, keep in SPANNED:
            orig = self._find(mod, func)
            if orig is not None:
                _replace(modules, orig,
                         self._spanned(f"{mod}.{func}", orig, keep))
        for mod, func, how in COUNTED:
            orig = self._find(mod, func)
            if orig is not None:
                _replace(modules, orig,
                         self._counted(f"{mod}.{func}", orig, how))

    def _find(self, mod, func):
        module = sys.modules.get(f"homlattice.{mod}")
        if module is None:
            # Not loaded means not reachable from this process; absent
            # only when the module itself is gone.
            if importlib.util.find_spec(f"homlattice.{mod}") is None:
                self.absent.append(f"{mod}.{func}")
            return None
        orig = getattr(module, func, None)
        if not callable(orig):
            self.absent.append(f"{mod}.{func}")
            return None
        return orig

    def _spanned(self, name, orig, keep):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                record[4] = keep(result)
            return result
        return functools.wraps(orig)(wrapper)

    def _counted(self, name, orig, how):
        counts = self.counts
        counts[name] = 0
        if how == "items":
            def wrapper(*args, **kwargs):
                for item in orig(*args, **kwargs):
                    counts[name] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                counts[name] += result.graph.n
                return result
        return functools.wraps(orig)(wrapper)

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "absent": self.absent, **extra}, handle)


def _replace(modules, orig, wrapper):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def merge(dumps):
    """One span list from several processes' dumps; parents re-indexed."""
    spans, counts, absent = [], {}, set()
    for dump in dumps:
        base = len(spans)
        for name, start, end, parent, kept in dump["spans"]:
            spans.append([name, start, end,
                          parent + base if parent >= 0 else -1, kept])
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        absent.update(dump["absent"])
    return spans, counts, sorted(absent)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced round.

    Self time is a span's duration minus the durations of its direct
    children. A metric whose boundaries are absent reads 0.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, total_s, calls, kept = {}, {}, {}, {}
    for i, (name, start, end, _, value) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        kept.setdefault(name, []).append(value)

    def kept_of(name):
        return kept.get(name, [])

    expands = {i for i, s in enumerate(spans) if s[0] == "basis.expand"}
    missed = {s[3] for s in spans
              if s[0] == "restrictions.apply_restriction" and s[3] in expands}
    # Distinct canonical keys per pattern-side call (expand or minors);
    # a canonical_form outside both is a class of its own.
    groups = {"basis.expand", "restrictions.restriction_minors"}
    classes = {}
    for i, (name, _, _, parent, key) in enumerate(spans):
        if name != "graphs.canonical_form":
            continue
        owner = parent
        while owner >= 0 and spans[owner][0] not in groups:
            owner = spans[owner][3]
        classes.setdefault(owner if owner >= 0 else -1 - i, set()).add(
            json.dumps(key))
    n_classes = sum(len(keys) for keys in classes.values())
    canonical_calls = (calls.get("graphs.canonical_form", 0)
                       + calls.get("graphs.canonical_representative", 0))
    visited = counts.get("flats.iter_set_partitions", 0)
    kept_flats = sum(kept_of("flats.enumerate_flats"))
    quotients = calls.get("graphs.quotient", 0)

    def s(name):
        return self_s.get(name, 0.0)

    values = {
        "restrictions.apply_s": s("restrictions.apply_restriction"),
        "restrictions.apply_calls": calls.get(
            "restrictions.apply_restriction", 0),
        "restrictions.constraint_edges": sum(
            kept_of("restrictions.apply_restriction")),
        "flats.enumerate_s": s("flats.enumerate_flats"),
        "flats.mobius_s": s("flats.compute_mobius"),
        "flats.partitions_visited": visited,
        "flats.flats_kept": kept_flats,
        "flats.keep_ratio": _ratio(kept_flats, visited),
        "graphs.quotient_s": s("graphs.quotient"),
        "graphs.quotients": quotients,
        "graphs.loopfree_ratio": _ratio(
            sum(1 for q in kept_of("graphs.quotient") if q), quotients),
        "graphs.canonical_s": (s("graphs.canonical_form")
                               + s("graphs.canonical_representative")),
        "graphs.canonical_calls": canonical_calls,
        "graphs.canonical_per_class": _ratio(canonical_calls, n_classes),
        "basis.expand_s": total_s.get("basis.expand", 0.0),
        "basis.expand_self_s": s("basis.expand"),
        "basis.expand_calls": len(expands),
        "basis.cache_hit_ratio": _ratio(len(expands) - len(missed),
                                        len(expands)),
        "basis.terms": sum(kept_of("basis.expand")),
        "basis.evaluate_self_s": s("basis.evaluate"),
        "treedp.hom_count_calls": calls.get("treedp.hom_count", 0),
        "treedp.treewidth_s": s("treedp.treewidth_exact"),
        "treedp.treewidth_calls": calls.get("treedp.treewidth_exact", 0),
        "treedp.max_width": max(kept_of("treedp.treewidth_exact"),
                                default=0),
        "treedp.validate_s": s("treedp.validate_decomposition"),
        "treedp.validate_calls": calls.get("treedp.validate_decomposition",
                                           0),
        "treedp.nice_s": s("treedp.make_nice"),
        "treedp.nice_nodes": sum(kept_of("treedp.make_nice")),
        "treedp.dp_s": s("treedp.count_homomorphisms"),
        "permtree.verify_s": s("permtree.verify_permanent_identity"),
        "permtree.gadget_vertices": counts.get("permtree.build_gadget", 0),
        "cli.parse_s": (s("cli.parse_graph") + s("cli.parse_manifest")
                        + s("permtree.parse_matrix")),
    }
    return values

