"""Spans around the public functions of the hermops layers, for traced passes.

The benchmark times each layer from its own files.  `Tracer.installed()`
replaces every module-level binding of the functions in LAYERS with a wrapper
that records a span (name, start, end, parent span, job id, whether it
raised) and puts the originals back on exit.  hermops binds many of these
names with `from .x import f` (`diffop.finite_difference`,
`classify.coefficient_polynomial`, the package's own re-exports), so every
binding in every hermops module is replaced; patching only the defining
module would miss the internal calls.

Spans stay in memory and are written as JSONL once the pass is over.  The
program is single-threaded, so a span's children are exactly the spans
opened while it was the innermost open span.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

LAYERS = {
    "jensen": ("taylor_gamma", "finite_difference", "ratio_sequence", "ratio_csv_lines"),
    "hermite": ("hermite_polys", "to_hermite_basis", "from_hermite_basis"),
    "laguerre": ("laguerre_polys", "to_laguerre_basis", "from_laguerre_basis"),
    "diffop": ("coefficient_polynomial", "build_operator"),
    "ratpoly": ("squarefree_part", "poly_gcd", "count_real_roots", "is_real_rooted"),
    "classify": ("coefficient_reality_table", "falsify_sequence"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# Arguments kept for the per-layer counters; only these spans hold them.
KEEP_ARGS = ("hermite.hermite_polys", "laguerre.laguerre_polys", "ratpoly.count_real_roots")
# A root test is top-level when no other root test encloses it.
ROOT_TESTS = ("ratpoly.count_real_roots", "ratpoly.is_real_rooted")
FALSIFIED = "falsified"

EXTRA_METRICS = (
    ("hermite.hermite_polys.distinct_frac", "ratio", "higher"),
    ("laguerre.laguerre_polys.distinct_frac", "ratio", "higher"),
    ("ratpoly.squarefree_per_root_test", "ratio", "lower"),
    ("ratpoly.count_real_roots.in_degree_max", "degree", "lower"),
    ("ratpoly.count_real_roots.in_bits_max", "bits", "lower"),
    ("classify.falsify.candidates", "count", "lower"),
    ("classify.falsify.hit_frac", "ratio", "higher"),
    ("cli.out_bytes", "bytes", "lower"),
)


def metric_names() -> list:
    """(name, unit, better) of every per-layer metric a traced pass reports."""
    out = []
    for qualname in FUNCTIONS:
        out += [
            (f"{qualname}.calls", "count", "lower"),
            (f"{qualname}.total_s", "s", "lower"),
            (f"{qualname}.self_s", "s", "lower"),
            (f"{qualname}.errors", "count", "lower"),
        ]
    return out + list(EXTRA_METRICS)


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end", "error", "args", "status")

    def __init__(self, span_id, parent, job, name, start=0.0, end=0.0):
        self.id = span_id
        self.parent = parent
        self.job = job
        self.name = name
        self.start = start
        self.end = end
        self.error = False
        self.args = None
        self.status = None


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of its interval its child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def _arg(span: Span, index: int, name: str):
    args, kwargs = span.args
    return args[index] if len(args) > index else kwargs[name]


def _bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _distinct_frac(spans: list) -> float:
    if not spans:
        return 0.0
    keys = {(s.args[0], tuple(sorted(s.args[1].items()))) for s in spans}
    return len(keys) / len(spans)


class Tracer:
    """Records spans for one pass; `job` names the job that later spans belong to."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans = []
        self.job = None
        self.candidates = 0
        self._stack = []

    def wrap(self, qualname: str, fn):
        tracer = self
        clock = self.clock
        keep_args = qualname in KEEP_ARGS
        keep_status = qualname == "classify.falsify_sequence"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), stack[-1].id if stack else None, tracer.job, qualname)
            tracer.spans.append(span)
            stack.append(span)
            if keep_args:
                span.args = (args, kwargs)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if keep_status:
                span.status = result.status
            return result

        traced.perfbench_original = fn
        return traced

    def _count_expand(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.candidates += 1
            return fn(*args, **kwargs)

        counted.perfbench_original = fn
        return counted

    @contextmanager
    def installed(self):
        """Wrap every hermops binding of FUNCTIONS, and the basis `expand` methods."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "hermops" or n.startswith("hermops.")]
        patches = []
        try:
            for qualname in FUNCTIONS:
                layer, name = qualname.split(".")
                original = getattr(sys.modules[f"hermops.{layer}"], name)
                wrapper = self.wrap(qualname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            classify = sys.modules["hermops.classify"]
            for cls in list(vars(classify).values()):
                if isinstance(cls, type) and cls.__module__ == classify.__name__ and "expand" in vars(cls):
                    original = vars(cls)["expand"]
                    patches.append((cls, "expand", original))
                    setattr(cls, "expand", self._count_expand(original))
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    def _outermost(self, span: Span, names) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return False
            parent = self.spans[parent].parent
        return True

    def layer_metrics(self, extra: dict = None) -> dict:
        """Every per-layer metric of `metric_names()` for the spans recorded so far."""
        own = self_times(self.spans)
        by_name = {qualname: [] for qualname in FUNCTIONS}
        for span in self.spans:
            by_name[span.name].append(span)
        out = {}
        for qualname, spans in by_name.items():
            out[f"{qualname}.calls"] = len(spans)
            out[f"{qualname}.total_s"] = sum(
                s.end - s.start for s in spans if self._outermost(s, (qualname,))
            )
            out[f"{qualname}.self_s"] = sum(own[s.id] for s in spans)
            out[f"{qualname}.errors"] = sum(1 for s in spans if s.error)

        out["hermite.hermite_polys.distinct_frac"] = _distinct_frac(by_name["hermite.hermite_polys"])
        out["laguerre.laguerre_polys.distinct_frac"] = _distinct_frac(by_name["laguerre.laguerre_polys"])
        top_tests = sum(
            1 for name in ROOT_TESTS for s in by_name[name] if self._outermost(s, ROOT_TESTS)
        )
        squarefree = len(by_name["ratpoly.squarefree_part"])
        out["ratpoly.squarefree_per_root_test"] = squarefree / top_tests if top_tests else 0.0
        counted = [s for s in by_name["ratpoly.count_real_roots"] if s.args is not None]
        inputs = [_arg(s, 0, "p") for s in counted]
        out["ratpoly.count_real_roots.in_degree_max"] = max((p.degree for p in inputs), default=0)
        out["ratpoly.count_real_roots.in_bits_max"] = max((_bits(p) for p in inputs), default=0)
        out["classify.falsify.candidates"] = self.candidates
        calls = by_name["classify.falsify_sequence"]
        hits = sum(1 for s in calls if s.status == FALSIFIED)
        out["classify.falsify.hit_frac"] = hits / len(calls) if calls else 0.0
        out.update(extra or {})
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id,
                    "parent": s.parent,
                    "job": s.job,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                    "error": s.error,
                }) + "\n")
