"""Per-layer tracing of the dulac package, from outside it.

The benchmark wraps the public functions of each module and records one
span per call: name, start, end and the enclosing span.  Spans stay in
memory until the pass ends, when ``Tracer.summary`` folds them into calls,
total time and self time per span point, plus the work counts recorded at
the same boundaries.

The package imports functions by name, so a function is patched in every
module that binds it (``dulac.normalizer.pull_back`` as well as
``dulac.maps.pull_back``); methods are patched on their class.  A span
point that no longer resolves raises instead of recording zeros.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# span name -> (module under dulac, attribute path in that module)
SPAN_POINTS: Dict[str, Tuple[str, str]] = {
    "cli.main": ("cli", "main"),
    "fieldfile.load_document": ("fieldfile", "load_document"),
    "fieldfile.field_to_dict": ("fieldfile", "field_to_dict"),
    "diagnostics.diagnose": ("diagnostics", "diagnose"),
    "diagnostics.condition_a": ("diagnostics", "condition_a"),
    "diagnostics.growth_classify": ("diagnostics", "growth_classify"),
    "diagnostics.to_dict": ("diagnostics", "DiagnosticsReport.to_dict"),
    "normalizer.normalize": ("normalizer", "normalize"),
    "maps.invert_to_order": ("maps", "NearIdentityMap.invert_to_order"),
    "maps.compose": ("maps", "NearIdentityMap.compose"),
    "maps.pull_back": ("maps", "pull_back"),
    "poly.substitute": ("poly", "PolyScalar.substitute"),
    "poly.mul": ("poly", "PolyScalar.__mul__"),
    "poly.lie_bracket": ("poly", "lie_bracket"),
    "resonance.kernel_dimension_at_degree":
        ("resonance", "kernel_dimension_at_degree"),
    "resonance.omega_condition": ("resonance", "omega_condition"),
    "resonance.poincare_domain": ("resonance", "poincare_domain"),
    "centralizer.centralizer_basis": ("centralizer", "centralizer_basis"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.mat_inverse": ("linalg", "mat_inverse"),
}

COUNTS = ("poly.mul.term_pairs", "poly.mul.pairs_useful_frac",
          "linalg.nullspace.rows", "linalg.nullspace.cols")

# Span points each workload must reach, and those it must never reach.
# Every span point is required by at least one workload.
MUST_FIRE = {
    "deep-diagnose": (
        "cli.main", "fieldfile.load_document", "diagnostics.diagnose",
        "diagnostics.condition_a", "diagnostics.growth_classify",
        "diagnostics.to_dict", "normalizer.normalize",
        "maps.invert_to_order", "poly.substitute", "poly.mul",
        "resonance.omega_condition", "resonance.poincare_domain"),
    "batch-normalize": (
        "cli.main", "fieldfile.load_document", "fieldfile.field_to_dict",
        "normalizer.normalize", "maps.compose", "maps.pull_back",
        "resonance.kernel_dimension_at_degree", "linalg.mat_inverse"),
    "centralizer-solve": (
        "cli.main", "fieldfile.load_document",
        "centralizer.centralizer_basis", "poly.lie_bracket", "poly.mul",
        "linalg.nullspace"),
}
MUST_NOT_FIRE = {
    "centralizer-solve": ("maps.invert_to_order", "maps.compose",
                          "maps.pull_back"),
}


def metric_names() -> List[str]:
    names = [f"{span}.{field}" for span in SPAN_POINTS
             for field in ("calls", "total_s", "self_s")]
    return names + list(COUNTS)


class Tracer:
    """Span recorder for one thread; reset between passes."""

    def __init__(self) -> None:
        # (name, start, end, parent index, outer duration); the outer
        # duration also covers the wrapper's own bookkeeping, so a
        # parent's self time excludes it.
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self._patched: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            outer = clock()
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if count is not None:
                    count(tracer.counts, *args)
                spans[index] = (name, start, end, parent, clock() - outer)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every span point, at every binding in the package."""
        modules = [m for n, m in sys.modules.items()
                   if n == "dulac" or n.startswith("dulac.")]
        poly = importlib.import_module("dulac.poly")
        counters = {"poly.mul": _mul_counter(poly.PolyScalar),
                    "linalg.nullspace": _count_nullspace}
        for span, (module_name, path) in SPAN_POINTS.items():
            owner = importlib.import_module(f"dulac.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if not inspect.isfunction(original):
                raise TypeError(f"span point {span}: dulac.{module_name}"
                                f".{path} is not a plain function")
            wrapper = self.wrap(span, original, counters.get(span))
            holders = [owner] if parents else modules
            bound = [(holder, name) for holder in holders
                     for name, value in vars(holder).items()
                     if value is original]
            for holder, name in bound:
                setattr(holder, name, wrapper)
                self._patched.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched = []

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[4]
        out: Dict[str, float] = {}
        for span in SPAN_POINTS:
            out[f"{span}.calls"] = 0
            out[f"{span}.total_s"] = 0.0
            out[f"{span}.self_s"] = 0.0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - covered[index]
        pairs = self.counts["term_pairs"]
        out["poly.mul.term_pairs"] = pairs
        out["poly.mul.pairs_useful_frac"] = (
            self.counts["pairs_useful"] / pairs if pairs else 0.0)
        out["linalg.nullspace.rows"] = self.counts["nullspace_rows"]
        out["linalg.nullspace.cols"] = self.counts["nullspace_cols"]
        return out


def _degree_histogram(terms) -> Counter:
    return Counter(sum(exps) for exps in terms)


def _mul_counter(poly_class) -> Callable:
    def count(counts: Counter, a, b, *rest) -> None:
        if not isinstance(b, poly_class):
            return  # scalar times polynomial: no term pairs
        order = min(a.order, b.order)
        ha, hb = _degree_histogram(a.terms), _degree_histogram(b.terms)
        counts["term_pairs"] += len(a.terms) * len(b.terms)
        counts["pairs_useful"] += sum(
            na * nb for da, na in ha.items() for db, nb in hb.items()
            if da + db <= order)
    return count


def _count_nullspace(counts: Counter, rows, ncols, *rest) -> None:
    counts["nullspace_rows"] += len(rows)
    counts["nullspace_cols"] += ncols


def check_reach(workload: str, summary: Dict[str, float]) -> List[str]:
    """Problems with which span points a workload reached, if any."""
    problems = [f"{span} never fired" for span in MUST_FIRE[workload]
                if not summary[f"{span}.calls"]]
    problems += [f"{span} fired {summary[f'{span}.calls']} times"
                 for span in MUST_NOT_FIRE.get(workload, ())
                 if summary[f"{span}.calls"]]
    return problems
