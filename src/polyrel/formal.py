"""Formal rational-linear combinations of rational-function arguments.

A FormalSum is a finite Q-linear combination of RatFunc arguments, the
working representation of elements of Z[F] / Q[F].  Canonicalization merges
arguments that are equal *as functions* (cross-multiplication equality,
accelerated by evaluation fingerprints) and drops zero coefficients; constant
arguments such as [1] are kept as constant RatFunc entries.

Field automorphisms are stored by their images on the variables, composed
exactly, and bred into finite groups / orbits by breadth-first closure.
Automorphism images are kept gcd-cancelled: without cancellation the images
of iterated compositions grow exponentially and closure cannot terminate.

Most of the maps the catalog uses need no gcd at all.  When every image is
c·x^m and the exponent matrix has determinant ±1, the map is an automorphism
of the Laurent ring Q[x^±1], whose units are the monomials.  A reduced p/q
has coprime p and q in that ring, so their images are coprime there too: the
only common factor the images can have as polynomials is a monomial.
Applying such a map to a cancelled argument therefore strips the common
monomial and is done; every other map or argument goes through the gcd in
`RatFunc.cancelled` (ratfunc's heuristic gcd on integer coefficients).
Closures are memoized by their generators, so the checks that share a group
build it once per process.

Closure and orbits cancel only what they keep.  Each call files the
elements it keeps by their exact values at one fixed rational point p (the
first fingerprint point).  The value of a composition g∘x at p is x's images
at g(p), and that of an orbit image σ(x) is x at σ(p), so neither needs the
composed function.  A value no kept element has proves the candidate new; a
matching value is confirmed by cross-multiplication (``equivalent``, or
``equivalent_up_to_inversion`` for orbits up to inversion, which file
images under the pair {v, 1/v}), and a confirmed candidate is dropped
uncancelled.  Every other candidate is cancelled and looked up by its
canonical key as before: the new ones, those with no value at p (a pole or
0/0 there), and those a monomial map yields already reduced, for which the
index would cost more than it saves.  The point changes speed only, never a
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .exact import DomainError, SplitMix64
from .poly import MultiPoly
from .ratfunc import INDETERMINATE, POLE, RatFunc
from .tensor import bump

__all__ = [
    "FormalSum",
    "Automorphism",
    "SpecializeResult",
    "group_closure",
    "orbit",
    "inversion_class_key",
    "ClosureBoundExceeded",
]


class ClosureBoundExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Evaluation fingerprints (bucketing helper for cross-multiplication equality)
# ---------------------------------------------------------------------------

_FP_POINTS = 2
_fp_value_cache: Dict[Tuple[str, int], Fraction] = {}


def _fp_value(var: str, k: int) -> Fraction:
    key = (var, k)
    v = _fp_value_cache.get(key)
    if v is None:
        rng = SplitMix64(0xF1A9).split(var, k)
        v = Fraction(rng.next_int(2, 127), rng.next_int(3, 113))
        _fp_value_cache[key] = v
    return v


def _fingerprint(f: RatFunc) -> Tuple:
    out = []
    for k in range(_FP_POINTS):
        point = {v: _fp_value(v, k) for v in f.vars}
        val = f.evaluate(point)
        if val is INDETERMINATE:
            # uncancelled common factor vanished at the probe point; fall back
            # to the reduced form so equal functions share fingerprints
            red = f.cancelled()
            val = red.evaluate({v: _fp_value(v, k) for v in red.vars})
        out.append("pole" if val is POLE else val)
    return tuple(out)


def inversion_class_key(f: RatFunc) -> str:
    """Canonical key of the argument class {f, 1/f} (sign-blind on inversion)."""
    if f._class_key is not None:
        return f._class_key
    red = f.cancelled()
    s = red.serialize()
    if red.is_zero():
        key = s
    else:
        key = min(s, red.inv().serialize())
    f._class_key = key
    return key


# ---------------------------------------------------------------------------
# FormalSum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecializeResult:
    """Outcome of FormalSum.specialize.

    ``degenerate`` is set when a non-constant argument evaluated to 0, 1, a
    pole, or 0/0 under the strict policy; with allow_degenerate such terms
    are dropped instead and listed in ``dropped`` as (argument, reason,
    coefficient) so callers can reconstruct the constant bookkeeping.
    """

    degenerate: bool
    sum: "FormalSum | None"
    dropped: Tuple[Tuple[str, str, str], ...] = ()

    def dropped_ones_coefficient(self) -> Fraction:
        """Net coefficient of arguments that degenerated to 1."""
        return sum(
            (Fraction(c) for _, reason, c in self.dropped if reason == "one"),
            Fraction(0),
        )


class FormalSum:
    """Canonical Q-linear combination of RatFunc arguments."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[Tuple[Fraction, RatFunc]] = ()):
        # fingerprint -> [representative, accumulated coefficient] entries;
        # a representative seen again (the same object) is merged by identity
        buckets: Dict[Tuple, List[list]] = {}
        by_id: Dict[int, list] = {}
        for coeff, arg in terms:
            c = Fraction(coeff)
            if c == 0:
                continue
            entry = by_id.get(id(arg))
            if entry is None:
                bucket = buckets.setdefault(_fingerprint(arg), [])
                entry = next((e for e in bucket if e[0].equivalent(arg)), None)
                if entry is None:
                    entry = [arg, Fraction(0)]
                    bucket.append(entry)
                    by_id[id(arg)] = entry
            entry[1] += c
        collected = [
            (acc, rep)
            for entries in buckets.values()
            for rep, acc in entries
            if acc != 0
        ]
        collected.sort(key=lambda t: t[1].serialize())
        self.terms = tuple(collected)
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def single(arg: RatFunc, coeff=1) -> "FormalSum":
        return FormalSum([(Fraction(coeff), arg)])

    @staticmethod
    def of(*args: RatFunc) -> "FormalSum":
        return FormalSum([(Fraction(1), a) for a in args])

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(list(self.terms) + list(other.terms))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def scale(self, c) -> "FormalSum":
        """c times the sum.

        For c != 0 the terms stay pairwise inequivalent and sorted by their
        unchanged arguments, so they are rescaled in place of a rebuild.
        """
        c = Fraction(c)
        if c == 0:
            return FormalSum()
        out = object.__new__(FormalSum)
        out.terms = tuple((coeff * c, arg) for coeff, arg in self.terms)
        out._hash = None
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple((c, a.serialize()) for c, a in self.terms))
        return self._hash

    # -- structure ---------------------------------------------------------------

    def variables(self) -> Tuple[str, ...]:
        vs = set()
        for _, arg in self.terms:
            vs.update(v for v in arg.vars if arg.num.degree_in(v) or arg.den.degree_in(v))
        return tuple(sorted(vs))

    def nonconstant_part(self) -> "FormalSum":
        return FormalSum([(c, a) for c, a in self.terms if not a.is_constant()])

    def coefficient_of(self, arg: RatFunc) -> Fraction:
        for c, a in self.terms:
            if a.equivalent(arg):
                return c
        return Fraction(0)

    # -- argument maps -------------------------------------------------------------

    def map_arguments(self, sigma: "Automorphism") -> "FormalSum":
        return FormalSum([(c, sigma.apply(a)) for c, a in self.terms])

    def substitute_arguments(self, binding: Mapping[str, RatFunc]) -> "FormalSum":
        """Apply a variable substitution to every non-constant argument."""
        out = []
        for c, a in self.terms:
            if a.is_constant():
                out.append((c, a))
            else:
                out.append((c, a.substitute({v: binding[v] for v in a.vars})))
        return FormalSum(out)

    def specialize(
        self, binding: Mapping[str, Fraction], allow_degenerate: bool = False
    ) -> SpecializeResult:
        """Substitute rational values for (some or all) variables exactly.

        Constant arguments (e.g. the [1] terms the trilogarithm relations
        carry) pass through unchanged.  A non-constant argument that becomes
        0, 1, a pole, or 0/0 makes the specialization degenerate.  Partial
        bindings leave symbolic arguments behind, which is how one-variable
        specializations of multi-variable blocks (t = 0, t = 1) are taken.
        """
        from .ratfunc import ZeroDenominator

        new_terms: List[Tuple[Fraction, RatFunc]] = []
        dropped: List[Tuple[str, str, str]] = []
        for c, a in self.terms:
            if a.is_constant():
                new_terms.append((c, a))
                continue
            live = [
                v
                for v in a.vars
                if (a.num.degree_in(v) or a.den.degree_in(v)) and v not in binding
            ]
            reason = None
            if not live:
                val = a.evaluate({v: binding.get(v, Fraction(0)) for v in a.vars})
                if val is POLE:
                    reason = "pole"
                elif val is INDETERMINATE:
                    reason = "indeterminate"
                elif val == 0:
                    reason = "zero"
                elif val == 1:
                    reason = "one"
                image = None if reason else RatFunc.from_value(val)
            else:
                sub = {v: binding[v] for v in a.vars if v in binding}
                for v in a.vars:
                    sub.setdefault(v, RatFunc.var(v))
                try:
                    image = a.substitute(sub)
                except ZeroDenominator:
                    image, reason = None, "pole"
                if image is not None and not any(
                    image.depends_on(v) for v in image.vars
                ):
                    # constant in disguise (possibly uncancelled, e.g. a/a)
                    val = image.cancelled().constant_value()
                    if val == 0:
                        image, reason = None, "zero"
                    elif val == 1:
                        image, reason = None, "one"
                    else:
                        image = RatFunc.from_value(val)
            if reason is None:
                new_terms.append((c, image))
            elif allow_degenerate:
                dropped.append((a.serialize(), reason, str(c)))
            else:
                return SpecializeResult(True, None, ((a.serialize(), reason, str(c)),))
        return SpecializeResult(False, FormalSum(new_terms), tuple(dropped))

    # -- inversion classes -----------------------------------------------------------

    def inversion_class_vector(self) -> Dict[str, Fraction]:
        """Class key -> total coefficient, identifying [z] with [1/z].

        Coefficients add across an inversion class, the correct merge for odd
        weights (CL_m is inversion-even for odd m).
        """
        out: Dict[str, Fraction] = {}
        for c, a in self.terms:
            bump(out, {inversion_class_key(a): c})
        return out

    def count_distinct_up_to_inversion(self) -> int:
        """Number of non-constant argument classes under inversion (sign-blind)."""
        keys = {inversion_class_key(a) for _, a in self.terms if not a.is_constant()}
        return len(keys)

    def serialize_terms(self) -> List[Dict[str, str]]:
        return [
            {"coeff": _frac_str(c), "arg": a.serialize()} for c, a in self.terms
        ]

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*[{a.serialize()}]" for c, a in self.terms[:6])
        extra = f" ... ({len(self.terms)} terms)" if len(self.terms) > 6 else ""
        return f"FormalSum({inner}{extra})"


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# Automorphisms, closure, orbits
# ---------------------------------------------------------------------------

class Automorphism:
    """Field automorphism of Q(vars), given by its images on the variables.

    Images are stored gcd-cancelled so every automorphism has one canonical
    representation; equality and hashing use that form directly.
    ``_monomial`` holds (p, q, m) per variable when every image is (p/q)·x^m
    and the exponent matrix is unimodular (see the module docstring), else
    None.
    """

    __slots__ = ("variables", "images", "_key", "_monomial")

    def __init__(self, images: Mapping[str, RatFunc | int | Fraction]):
        self.variables = tuple(sorted(images))
        self.images = {
            v: RatFunc.coerce(images[v]).cancelled() for v in self.variables
        }
        self._key = tuple(self.images[v].serialize() for v in self.variables)
        self._monomial = _unimodular_monomial_images(self.variables, self.images)

    @staticmethod
    def identity(variables: Sequence[str]) -> "Automorphism":
        return Automorphism({v: RatFunc.var(v) for v in variables})

    def apply(self, f: RatFunc) -> RatFunc:
        binding = {v: self.images[v] for v in f.vars if v in self.images}
        missing = [v for v in f.vars if v not in self.images
                   and (f.num.degree_in(v) or f.den.degree_in(v))]
        if missing:
            raise DomainError(f"automorphism does not cover variables {missing}")
        if self._monomial is not None and f._cancelled is f:
            return self._apply_monomial(f)
        for v in f.vars:
            binding.setdefault(v, RatFunc.var(v))
        return f.substitute(binding)

    def _apply_monomial(self, f: RatFunc) -> RatFunc:
        """Image of a cancelled f under a unimodular monomial map, cancelled.

        Same variable table as ``f.substitute(...).cancelled()``: the union of
        the images of the variables f depends on.  Each term is carried as an
        integer numerator and denominator over an integer exponent row, and
        both polynomials are cleared once by the lcm of the denominators, a
        positive scale the constructor's normalization removes.
        """
        mono = self._monomial
        n = len(self.variables)

        def image(p) -> List[Tuple[List[int], int, int]]:
            out = []
            for exp, c in p.terms.items():
                a, b = c.numerator, c.denominator
                m = [0] * n
                for v, e in zip(p.vars, exp):
                    if e:
                        cn, cd, mv = mono[v]
                        a *= cn ** e
                        b *= cd ** e
                        m = [x + e * y for x, y in zip(m, mv)]
                out.append((m, a, b))
            return out

        num, den = image(f.num), image(f.den)
        terms = num + den
        low = [min(col) for col in zip(*(m for m, _, _ in terms))]
        scale = lcm(*(b for _, _, b in terms))
        live = [v for v in f.vars if f.num.degree_in(v) or f.den.degree_in(v)]
        vs = tuple(sorted({w for v in live for w in self.images[v].vars}))
        pos = {v: i for i, v in enumerate(self.variables)}
        cols = [pos.get(w) for w in vs]

        def poly(terms) -> MultiPoly:
            return MultiPoly._trusted(
                vs,
                {
                    tuple([0 if i is None else m[i] - low[i] for i in cols]): Fraction(a * (scale // b))
                    for m, a, b in terms
                },
            )

        out = RatFunc(poly(num), poly(den))
        out._cancelled = out
        return out

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other)).apply(f) == self.apply(other.apply(f))."""
        if self.variables != other.variables:
            raise DomainError("automorphisms act on different variable sets")
        return Automorphism({v: self.apply(other.images[v]) for v in self.variables})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        parts = ", ".join(f"{v} -> {self.images[v].serialize()}" for v in self.variables)
        return f"Automorphism({parts})"


def _unimodular_monomial_images(
    variables: Tuple[str, ...], images: Mapping[str, RatFunc]
) -> "Dict[str, Tuple[int, int, Tuple[int, ...]]] | None":
    """{v: (p, q, m)} when each image is (p/q)·x^m, q > 0, with det(m rows) = ±1,
    else None."""
    pos = {v: i for i, v in enumerate(variables)}
    out = {}
    for v in variables:
        r = images[v]
        if len(r.num.terms) != 1 or len(r.den.terms) != 1:
            return None
        ((ne, nc),) = r.num.terms.items()
        ((de, dc),) = r.den.terms.items()
        m = [0] * len(variables)
        for w, a, b in zip(r.vars, ne, de):
            if a != b:
                if w not in pos:
                    return None
                m[pos[w]] = a - b
        cv = nc / dc
        out[v] = (cv.numerator, cv.denominator, tuple(m))
    if abs(_det([out[v][2] for v in variables])) != 1:
        return None
    return out


def _det(rows: Sequence[Sequence[int]]) -> Fraction:
    """Determinant of a square integer matrix by Gaussian elimination."""
    m = [[Fraction(a) for a in r] for r in rows]
    det = Fraction(1)
    for i in range(len(m)):
        piv = next((r for r in range(i, len(m)) if m[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


_closure_cache: Dict[Tuple, List[Automorphism]] = {}


def group_closure(generators: Sequence[Automorphism], bound: int = 1024) -> List[Automorphism]:
    """Full closure of the generators under composition, including identity.

    Breadth-first multiplication by the generators; raises
    ClosureBoundExceeded if more than ``bound`` elements appear.  The result
    is sorted by canonical image key, so its order is deterministic.  Results
    are memoized per process by the generators' keys; each call gets its own
    list.
    """
    if not generators:
        raise DomainError("need at least one generator")
    cache_key = tuple((g.variables, g._key) for g in generators)
    group = _closure_cache.get(cache_key)
    if group is None:
        group = _closure(generators, bound)
        _closure_cache[cache_key] = group
    if len(group) > bound:
        raise ClosureBoundExceeded(f"closure exceeded the bound of {bound} elements")
    return list(group)


def _values(images: Mapping[str, RatFunc], variables: Sequence[str], point) -> "Tuple | None":
    """The exact values of the images of ``variables`` at ``point``, or None
    when one of them has a pole or is 0/0 there."""
    out = []
    for v in variables:
        value = images[v].evaluate(point)
        if value is POLE or value is INDETERMINATE:
            return None
        out.append(value)
    return tuple(out)


def _probe_point(names: Iterable[str]) -> Dict[str, Fraction]:
    """The fixed rational point the closure and orbit dedup evaluate at."""
    return {v: _fp_value(v, 0) for v in names}


def _closure(generators: Sequence[Automorphism], bound: int) -> List[Automorphism]:
    variables = generators[0].variables
    ident = Automorphism.identity(variables)
    seen: Dict[Tuple, Automorphism] = {ident._key: ident}
    frontier = []
    for g in generators:
        if g._key not in seen:
            seen[g._key] = g
            frontier.append(g)
    point = _probe_point(
        set(variables).union(*(r.vars for g in generators for r in g.images.values()))
    )
    index: Dict[Tuple, List[Automorphism]] = {}
    for x in seen.values():
        _index(index, _values(x.images, variables, point), x)
    # g(p) for each generator that needs a gcd to compose: g∘x has x's images
    # at g(p) as its value at p
    moved = []
    for g in generators:
        at = None if g._monomial is not None else _values(g.images, variables, point)
        moved.append(None if at is None else {**point, **dict(zip(variables, at))})
    while frontier:
        new_frontier = []
        for g, at in zip(generators, moved):
            for x in frontier:
                value = None if at is None else _values(x.images, variables, at)
                if value is not None and any(
                    all(g.apply(x.images[v]).equivalent(y.images[v]) for v in variables)
                    for y in index.get(value, ())
                ):
                    continue
                composed = g.compose(x)
                if composed._key in seen:
                    continue
                seen[composed._key] = composed
                if value is None:
                    value = _values(composed.images, variables, point)
                _index(index, value, composed)
                new_frontier.append(composed)
                if len(seen) > bound:
                    raise ClosureBoundExceeded(
                        f"closure exceeded the bound of {bound} elements"
                    )
        frontier = new_frontier
    return sorted(seen.values(), key=lambda a: a._key)


def _index(index: Dict, value, element) -> None:
    """File ``element`` under its value at the probe point, if it has one."""
    if value is not None:
        index.setdefault(value, []).append(element)


def _class_value(value, up_to_inversion: bool):
    """Index key of an orbit image with this value at the probe point: the
    value, or the pair {v, 1/v} up to inversion; None where there is none."""
    if value is POLE or value is INDETERMINATE:
        return None
    if not up_to_inversion:
        return value
    return None if value == 0 else frozenset((value, 1 / value))


def orbit(
    x: RatFunc,
    group: Sequence[Automorphism],
    up_to_inversion: bool = False,
) -> List[RatFunc]:
    """Distinct images of x under the group (optionally identifying [z]~[1/z]).

    Returns cancelled representatives sorted by serialization; each is the
    first image of its class in group order.
    """
    x = x.cancelled()
    point = _probe_point(
        set(x.vars).union(*(r.vars for s in group for r in s.images.values()))
    )
    same = RatFunc.equivalent_up_to_inversion if up_to_inversion else RatFunc.equivalent
    reps: Dict[str, RatFunc] = {}
    index: Dict = {}
    for sigma in group:
        image = sigma.apply(x)
        value = None
        if image._cancelled is not image:
            # the value of sigma(x) at p is x at sigma(p)
            at = _values(sigma.images, sigma.variables, point)
            if at is not None:
                value = x.evaluate({**point, **dict(zip(sigma.variables, at))})
                value = _class_value(value, up_to_inversion)
            if value is not None and any(same(image, rep) for rep in index.get(value, ())):
                continue
            image = image.cancelled()
        key = inversion_class_key(image) if up_to_inversion else image.serialize()
        if key not in reps:
            reps[key] = image
            if value is None:
                value = _class_value(image.evaluate(point), up_to_inversion)
            _index(index, value, image)
    return [reps[k] for k in sorted(reps)]
