"""Layer spans for the traced benchmark run.

`Tracer.install()` wraps the public cohomcert functions listed in LAYERS
at every module or class attribute that binds them, so a name imported
with `from .groebner import buchberger` is covered as well as the
original.  Each call records one span `[name, start_ns, end_ns, parent,
attrs]` in memory; `parent` is the index of the enclosing span (or -1)
and `attrs` holds per-call counts or null.  `Tracer.write()` dumps the
spans with the operation id when the operation ends.

`layer_metrics()` turns the spans of one operation into the per-layer
metrics named in METRICS; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute path); several functions may share a name
LAYERS = (
    ("degree_solver.monomials_of_degree", "cohomcert.degree_solver", "monomials_of_degree"),
    ("degree_solver.positive_functional", "cohomcert.degree_solver", "positive_functional"),
    ("degree_solver.unique_monomial_family", "cohomcert.degree_solver", "unique_monomial_family"),
    ("degree_solver.certify_no_solutions", "cohomcert.degree_solver", "certify_no_solutions"),
    ("groebner.buchberger", "cohomcert.groebner", "buchberger"),
    ("groebner.normal_form", "cohomcert.groebner", "normal_form"),
    ("groebner.membership", "cohomcert.groebner", "membership"),
    ("groebner.colon", "cohomcert.groebner", "colon"),
    ("groebner.eliminate", "cohomcert.groebner", "eliminate"),
    ("groebner.intersect", "cohomcert.groebner", "intersect"),
    ("groebner.ideal_equal", "cohomcert.groebner", "ideal_equal"),
    ("toeplitz.factor_univariate_fp", "cohomcert.toeplitz", "factor_univariate_fp"),
    ("toeplitz.irreducibility_certified", "cohomcert.toeplitz", "irreducibility_certified"),
    ("toeplitz.det_oracle", "cohomcert.toeplitz", "det_oracle"),
    ("toeplitz.generating_check", "cohomcert.toeplitz", "generating_check"),
    ("toeplitz.qn_dehomogenized", "cohomcert.toeplitz", "qn_dehomogenized"),
    ("polyring.Polynomial.mul", "cohomcert.polyring", "Polynomial.__mul__"),
    ("polyring.Polynomial.mul", "cohomcert.polyring", "Polynomial.__pow__"),
    ("polyring.Polynomial.add", "cohomcert.polyring", "Polynomial.__add__"),
    ("polyring.Polynomial.add", "cohomcert.polyring", "Polynomial.__sub__"),
    ("polyring.parse_polynomial", "cohomcert.polyring", "parse_polynomial"),
    ("polyring.format_polynomial", "cohomcert.polyring", "format_polynomial"),
    ("cohomology.weight_reduction_nonvanishing", "cohomcert.cohomology", "weight_reduction_nonvanishing"),
    ("cohomology.lambda_q", "cohomcert.cohomology", "lambda_q"),
    ("cohomology.annihilator_in_subring", "cohomcert.cohomology", "annihilator_in_subring"),
    ("cohomology.is_zero_up_to", "cohomcert.cohomology", "is_zero_up_to"),
    ("scenarios.run_scenario", "cohomcert.scenarios", "run_scenario"),
    ("scenarios.reverify", "cohomcert.scenarios", "reverify"),
    ("cli.main", "cohomcert.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
CALLS = (
    "degree_solver.monomials_of_degree", "degree_solver.positive_functional",
    "groebner.buchberger", "toeplitz.factor_univariate_fp",
    "toeplitz.irreducibility_certified", "polyring.Polynomial.mul",
    "polyring.parse_polynomial", "polyring.format_polynomial",
)
# per-call attrs summed over spans: metric -> (span name, attr, combine)
ATTR_COUNTS = {
    "degree_solver.monomials_of_degree.solutions":
        ("degree_solver.monomials_of_degree", "solutions", sum),
    "groebner.buchberger.cache_hits": ("groebner.buchberger", "cache_hit", sum),
    "groebner.buchberger.s_pairs": ("groebner.buchberger", "s_pairs", sum),
    "groebner.buchberger.basis_size": ("groebner.buchberger", "basis_size", sum),
    "groebner.buchberger.max_degree": ("groebner.buchberger", "max_degree", max),
    "groebner.guard_aborts": ("groebner.buchberger", "guard_abort", sum),
    "toeplitz.factor_univariate_fp.degree_sum":
        ("toeplitz.factor_univariate_fp", "degree", sum),
}
HIGHER_IS_BETTER = {"groebner.buchberger.cache_hits"}

# (metric, unit, better), in the order BENCHMARK.json lists them
METRICS = tuple(
    [(f"{n}.self_s", "s", "lower") for n in SPAN_NAMES]
    + [(f"{n}.calls", "count", "lower") for n in CALLS]
    + [(m, "count", "higher" if m in HIGHER_IS_BETTER else "lower")
       for m in ATTR_COUNTS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def _solutions(_tracer, result):
    return {"solutions": len(result)}


def _degree(_tracer, result):
    return {"degree": sum(m * f.total_degree() for f, m in result)}


def _gb_attrs(tracer, gb):
    # the Groebner cache returns the same object for a repeated ideal
    if id(gb) in tracer.seen_bases:
        return {"cache_hit": 1}
    tracer.seen_bases[id(gb)] = gb
    d = gb.diagnostics
    return {"cache_hit": 0, "s_pairs": d.s_pairs,
            "basis_size": d.basis_size, "max_degree": d.max_degree}


_ATTR_HOOKS = {
    "degree_solver.monomials_of_degree": _solutions,
    "toeplitz.factor_univariate_fp": _degree,
    "groebner.buchberger": _gb_attrs,
}


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []
        self.stack: list = []
        self.seen_bases: dict = {}

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = _ATTR_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                kind = type(exc).__name__
                span[4] = {"error": kind,
                           "guard_abort": int(kind == "GuardExceededError")}
                raise
            span[2] = clock()
            stack.pop()
            if hook is not None:
                span[4] = hook(self, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever a cohomcert module or class
        holds it; raise if a listed function no longer exists."""
        holders = []
        for modname, mod in list(sys.modules.items()):
            if modname == "cohomcert" or modname.startswith("cohomcert."):
                holders.append(mod)
                holders.extend(v for v in vars(mod).values()
                               if isinstance(v, type)
                               and v.__module__ == modname)
        for name, modname, path in LAYERS:
            owner = sys.modules[modname]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            sites = 0
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        sites += 1
            if not sites:
                raise RuntimeError(f"{modname}.{path} is bound nowhere")

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"op": self.op_id,
                       "fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one operation's spans (no overhead ratio)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    attrs: dict = {}
    for i, (name, start, end, _, extra) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]
        calls[name] += 1
        for key, value in (extra or {}).items():
            if key != "error":
                attrs.setdefault((name, key), []).append(value)
    out = {f"{n}.self_s": self_ns[n] / 1e9 for n in SPAN_NAMES}
    out.update({f"{n}.calls": calls[n] for n in CALLS})
    for metric, (name, key, combine) in ATTR_COUNTS.items():
        out[metric] = combine(attrs.get((name, key), [0]))
    return out


def combine_ops(per_op: list) -> dict:
    """Sum the metrics of the operations of one round (max for max_degree)."""
    total: dict = {}
    for metrics in per_op:
        for key, value in metrics.items():
            if key == "groebner.buchberger.max_degree":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total
