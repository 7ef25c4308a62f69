"""Span tracing for the traced run, installed from outside the program.

``install()`` wraps each measured polyrel function: in its defining module,
in every polyrel module that imported it by name, and on its class for
methods.  Every call records a span (name, start, end, parent) in flat
arrays, so recursive calls such as ``cl_m`` -> ``cl_m`` or ``li_m`` ->
``li_m`` nest as they ran.  A few wrappers also count outcomes (cache hits,
useful specializations) at the same boundary.

``layer_metrics()`` turns the spans into the per-layer metrics listed in
``PER_LAYER``.  Self time is a span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from workloads import FOURLOG_NUMERIC_N, FOURLOG_PROOF_N, SYMBOLIC_RELATIONS

LAYERS = (
    "numeric",
    "criterion",
    "exact",
    "formal",
    "ratfunc",
    "poly",
    "proofalgebra",
    "checks",
    "report",
)

# every equation a workload's set-up builds
CATALOG_BUILDS = SYMBOLIC_RELATIONS + tuple(f"fourlog_n{n}" for n in FOURLOG_NUMERIC_N)

# spans reported as calls and self time
_CALLS_AND_SELF = (
    "numeric.cl_m",
    "numeric.li_m.series",
    "numeric.li_m.unit",
    "numeric.li_m.cont",
    "numeric.poly_roots",
    "criterion.kernel_test",
    "criterion.beta_pairing",
    "criterion.log_vector",
    "exact.factor_rational",
    "exact.factor_int",
    "formal.FormalSum.specialize",
    "formal.group_closure",
    "formal.orbit",
    "formal.Automorphism.apply",
    "formal.Automorphism.compose",
    "formal.inversion_class_key",
    "ratfunc.RatFunc.cancelled",
    "ratfunc._sympy_cancel",
    "ratfunc.RatFunc.substitute",
    "ratfunc.RatFunc.evaluate",
    "ratfunc.RatFunc.evaluate_in",
    "poly.MultiPoly.__mul__",
    "poly.MultiPoly.evaluate",
    "proofalgebra.beta4_formal",
)
# spans reported as self time only
_SELF_ONLY = (
    tuple(f"proofalgebra.verify_identities.n{n}" for n in FOURLOG_PROOF_N)
    + tuple(f"proofalgebra.verify_claim_and_theorem.n{n}" for n in FOURLOG_PROOF_N)
    + (
        "checks.group_generators",
        "checks.check_Gprime_correspondence",
        "checks.check_q_equations",
        "report.criterion_3",
        "report.criterion_4",
    )
)
# ratio = hits / lookups, both counted by the wrappers
_RATIOS = {
    "exact.factor_int.hit_ratio": ("exact.factor_int.hit", "exact.factor_int.lookup"),
    "ratfunc.cancel.hit_ratio": ("ratfunc.cancel.hit", "ratfunc.cancel.lookup"),
    "formal.FormalSum.specialize.useful_ratio": (
        "formal.FormalSum.specialize.useful",
        "formal.FormalSum.specialize.attempt",
    ),
}


def _per_layer() -> List[Tuple[str, str, str]]:
    out = []
    for name in _CALLS_AND_SELF:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.append(("exact.random_rational.calls", "count", "lower"))
    for name in _SELF_ONLY:
        out.append((f"{name}.self_s", "s", "lower"))
    for name in _RATIOS:
        out.append((name, "ratio", "higher"))
    for eq in CATALOG_BUILDS:
        out.append((f"catalog.get_equation.{eq}.build_s", "s", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.share", "ratio", "lower"))
    out.append(("trace_overhead_frac", "ratio", "lower"))
    return out


#: (name, unit, better) of every metric the traced run reports
PER_LAYER = _per_layer()

#: metrics that must repeat exactly between two traced runs at one seed
DETERMINISTIC = tuple(n for n, unit, _ in PER_LAYER if unit == "count" or n in _RATIOS)


class Tracer:
    """Spans in flat arrays plus named counters; one per traced process."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name_of: Callable) -> Callable:
        """``name_of(args, kwargs)`` gives the span name id of one call."""
        name_id, parent, start, end, stack = (
            self.name_id,
            self.parent,
            self.start,
            self.end,
            self._open,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(name_of(args, kwargs))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str, meta: dict) -> None:
        """Write a header line, then one ``[name, parent, start, end]`` line per span."""
        names = self.names
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "counts": self.counts}) + "\n")
            for i in range(len(self.start)):
                fh.write(f'["{names[self.name_id[i]]}",{self.parent[i]},{self.start[i]!r},{self.end[i]!r}]\n')


def _replace(original: Callable, wrapper: Callable, holder) -> int:
    """Point every polyrel reference to ``original`` (and ``holder``'s) at ``wrapper``."""
    replaced = 0
    holders = [m for n, m in sys.modules.items() if n == "polyrel" or n.startswith("polyrel.")]
    for h in holders + [holder]:
        for attr, value in list(vars(h).items()):
            if value is original:
                setattr(h, attr, wrapper)
                replaced += 1
    return replaced


def install() -> Tracer:
    """Import the polyrel modules and wrap the measured functions."""
    from polyrel import catalog, checks, criterion, exact, formal, numeric, poly
    from polyrel import proofalgebra, ratfunc, report, verify  # noqa: F401

    tracer = Tracer()
    counts = tracer.counts

    def fixed(name: str):
        nid = tracer.intern(name)
        return lambda args, kwargs: nid

    def by_n(prefix: str):
        return lambda args, kwargs: tracer.intern(f"{prefix}.n{args[0] if args else kwargs['n']}")

    li_ids = [tracer.intern(f"numeric.li_m.{r}") for r in ("series", "unit", "cont")]

    def li_region(args, kwargs):
        a = abs(args[1])
        return li_ids[0] if a <= 0.5 else li_ids[1] if a <= 2 else li_ids[2]

    def patch(holder, attr: str, name_of, observe=None):
        """Wrap ``holder.attr`` (a module function or a method).

        ``observe(args)`` runs before each call and returns a function that
        receives the result, for counting outcomes at the same boundary.
        """
        original = fn = getattr(holder, attr)
        if observe is not None:

            def fn(*args, **kwargs):
                finish = observe(args)
                result = original(*args, **kwargs)
                finish(result)
                return result

        if _replace(original, tracer.wrap(fn, name_of), holder) == 0:
            raise RuntimeError(f"nothing to patch for {attr}")

    patch(numeric, "cl_m", fixed("numeric.cl_m"))
    patch(numeric, "li_m", li_region)
    patch(numeric, "poly_roots", fixed("numeric.poly_roots"))
    patch(criterion, "kernel_test", fixed("criterion.kernel_test"))
    patch(criterion, "beta_pairing", fixed("criterion.beta_pairing"))
    patch(criterion, "log_vector", fixed("criterion.log_vector"))
    patch(exact, "factor_rational", fixed("exact.factor_rational"))
    patch(exact, "random_rational", fixed("exact.random_rational"))

    factor_cache = exact._factor_cache

    def factor_lookup(args):
        n, size = args[0], len(factor_cache)

        def finish(_):
            if n > 1:
                counts["exact.factor_int.lookup"] += 1
                if len(factor_cache) == size:
                    counts["exact.factor_int.hit"] += 1

        return finish

    patch(exact, "factor_int", fixed("exact.factor_int"), factor_lookup)

    def specialize_attempt(args):
        def finish(result):
            counts["formal.FormalSum.specialize.attempt"] += 1
            if not result.degenerate:
                counts["formal.FormalSum.specialize.useful"] += 1

        return finish

    patch(formal.FormalSum, "specialize", fixed("formal.FormalSum.specialize"), specialize_attempt)
    patch(formal, "group_closure", fixed("formal.group_closure"))
    patch(formal, "orbit", fixed("formal.orbit"))
    patch(formal.Automorphism, "apply", fixed("formal.Automorphism.apply"))
    patch(formal.Automorphism, "compose", fixed("formal.Automorphism.compose"))
    patch(formal, "inversion_class_key", fixed("formal.inversion_class_key"))

    def cancel_lookup(args):
        counts["ratfunc.cancel.lookup"] += 1
        if args[0]._cancelled is not None:
            counts["ratfunc.cancel.hit"] += 1
        return lambda result: None

    patch(ratfunc.RatFunc, "cancelled", fixed("ratfunc.RatFunc.cancelled"), cancel_lookup)
    patch(ratfunc, "_sympy_cancel", fixed("ratfunc._sympy_cancel"))
    patch(ratfunc.RatFunc, "substitute", fixed("ratfunc.RatFunc.substitute"))
    patch(ratfunc.RatFunc, "evaluate", fixed("ratfunc.RatFunc.evaluate"))
    patch(ratfunc.RatFunc, "evaluate_in", fixed("ratfunc.RatFunc.evaluate_in"))
    patch(poly.MultiPoly, "__mul__", fixed("poly.MultiPoly.__mul__"))
    patch(poly.MultiPoly, "evaluate", fixed("poly.MultiPoly.evaluate"))
    patch(proofalgebra, "verify_identities", by_n("proofalgebra.verify_identities"))
    patch(proofalgebra, "verify_claim_and_theorem", by_n("proofalgebra.verify_claim_and_theorem"))
    patch(proofalgebra, "beta4_formal", fixed("proofalgebra.beta4_formal"))
    patch(checks, "group_generators", fixed("checks.group_generators"))
    patch(checks, "check_Gprime_correspondence", fixed("checks.check_Gprime_correspondence"))
    patch(checks, "check_q_equations", fixed("checks.check_q_equations"))
    patch(report, "criterion_3_symmetric_equivalences", fixed("report.criterion_3"))
    patch(report, "criterion_4_q_equations", fixed("report.criterion_4"))
    # catalog builds: get_equation caches, so wrap the builders it dispatches to
    for eq, builder in list(catalog._BUILDERS.items()):
        catalog._BUILDERS[eq] = tracer.wrap(builder, fixed(f"catalog.get_equation.{eq}"))
    return tracer


def layer_metrics(tracer: Tracer, timed_start: float, timed_wall: float) -> Dict[str, float]:
    """Per-layer metrics from one traced process's spans and counters.

    Layer shares cover the spans that start in the timed phase.
    """
    names, name_id, parent, start, end = (
        tracer.names,
        tracer.name_id,
        tracer.parent,
        tracer.start,
        tracer.end,
    )
    child = array("d", bytes(8 * len(start)))
    for i in range(len(start)):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    for i in range(len(start)):
        name = names[name_id[i]]
        duration = end[i] - start[i]
        own = duration - child[i]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += duration
        if start[i] >= timed_start:
            layer_self[name.split(".", 1)[0]] += own
    counts = tracer.counts
    out: Dict[str, float] = {}
    for name in _CALLS_AND_SELF:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["exact.random_rational.calls"] = calls["exact.random_rational"]
    for name in _SELF_ONLY:
        out[f"{name}.self_s"] = self_s[name]
    for name, (hit, lookup) in _RATIOS.items():
        out[name] = counts[hit] / counts[lookup] if counts[lookup] else 0.0
    for eq in CATALOG_BUILDS:
        out[f"catalog.get_equation.{eq}.build_s"] = total_s[f"catalog.get_equation.{eq}"]
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / timed_wall
    return out
