"""Formal rational-linear combinations of rational-function arguments.

A FormalSum is a finite Q-linear combination of RatFunc arguments, the
working representation of elements of Z[F] / Q[F].  Canonicalization merges
arguments that are equal *as functions*, keyed by the serialization of their
cancelled form (which every RatFunc caches), and drops zero coefficients;
constant arguments such as [1] are kept as constant RatFunc entries.

Field automorphisms are stored by their images on the variables, kept
gcd-cancelled so that each has one canonical key.  Finite groups are closed
through their permutation action on the orbit of the variables (below), and
``compose`` composes two maps exactly.

Most of the maps the catalog uses need no gcd at all.  When every image is
c·x^m and the exponent matrix has determinant ±1, the map is an automorphism
of the Laurent ring Q[x^±1], whose units are the monomials.  A reduced p/q
has coprime p and q in that ring, so their images are coprime there too: the
only common factor the images can have as polynomials is a monomial.
Applying such a map to a cancelled argument therefore strips the common
monomial and is done; every other map or argument goes through the gcd in
`RatFunc.cancelled` (ratfunc's heuristic gcd on integer coefficients).

Closures and orbits share one breadth-first search (``_orbit``): each
generator is applied once to each element of the orbit found so far, and
the image is cancelled and filed by its serialization, which is canonical
for cancelled forms.  An orbit is that search from one argument.  A closure
runs it from the variables and records each generator as a permutation of
the indices of their orbit O.  A group element is fixed by the indices of
its images of the variables, and (g∘x)(v) = g(x(v)), so the closure is a
breadth-first search over index tuples with no algebra at all.
``group_order`` counts those tuples; ``group_closure`` builds each element
from the cancelled members of O.  A variable's orbit has at most |G|
elements, so an O larger than ``bound`` times the number of variables ends a
generator of infinite order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from .exact import DomainError
from .poly import IntPoly, MultiPoly, _frac_str, power_table
from .ratfunc import INDETERMINATE, POLE, RatFunc
from .tensor import bump

__all__ = [
    "FormalSum",
    "ArgumentPlan",
    "Automorphism",
    "SpecializeResult",
    "group_closure",
    "group_order",
    "orbit",
    "inversion_class_key",
    "ClosureBoundExceeded",
]


class ClosureBoundExceeded(RuntimeError):
    pass


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


def _in_plan_order(names: Tuple[str, ...], variables: Tuple[str, ...]) -> bool:
    """True when an argument has positive degree in every variable of the
    plan: its exponent tuples over ``names`` are then already full-width
    vectors in plan order (both are sorted), and need no scatter."""
    return names == variables


class ArgumentPlan:
    """The arguments of a sum as distinct integer polynomials, for evaluation
    at points.

    ``variables`` are the sum's variables, sorted, and ``degrees`` the
    largest degree of each in any argument.  The num and den of every
    non-constant argument, cleared to ints with exponents restricted to its
    own variables (``RatFunc.live_cleared``, cached per argument), are filed
    once per distinct polynomial: ``polys`` holds each as (monomial index,
    int coefficient) pairs, indexing ``monomials``, the distinct exponent
    vectors over ``variables``.  ``args`` holds (coefficient, num index, den
    index) per non-constant argument and ``constants`` (coefficient,
    Fraction) per constant one, each in sum order.

    An evaluator computes each monomial once at a point and passes the
    values to ``values``.  It may scale every monomial by one common nonzero
    factor (the kernel test homogenizes rational points to integers): an
    argument's num and den share that factor, so their quotient is its
    value.
    """

    __slots__ = ("variables", "degrees", "monomials", "polys", "args", "constants")

    def __init__(self, terms: Iterable[Tuple[Fraction, RatFunc]]):
        constants = []
        live = []
        degree: Dict[str, int] = {}
        for c, a in terms:
            names, top, num, den = a.live_cleared()
            if not names:
                constants.append((c, a.constant_value()))
                continue
            for v, d in zip(names, top):
                degree[v] = max(degree.get(v, 0), d)
            live.append((c, names, num, den))
        variables = self.variables = tuple(sorted(degree))
        self.degrees = tuple(degree[v] for v in variables)
        index = {v: k for k, v in enumerate(variables)}
        width = len(index)
        monomials: Dict[Tuple[int, ...], int] = {}
        slots: Dict[tuple, int] = {}  # (names, frozen IntPoly) -> index into polys
        polys: List[Tuple[Tuple[int, int], ...]] = []

        def slot(names, poly) -> int:
            i = slots.get((names, poly))
            if i is None:
                if _in_plan_order(names, variables):
                    pairs = [(monomials.setdefault(exp, len(monomials)), n) for exp, n in poly]
                else:
                    place = [index[v] for v in names]
                    pairs = []
                    for exp, n in poly:
                        full = [0] * width
                        for k, e in zip(place, exp):
                            full[k] = e
                        pairs.append((monomials.setdefault(tuple(full), len(monomials)), n))
                i = slots[names, poly] = len(polys)
                polys.append(tuple(pairs))
            return i

        self.args = tuple((c, slot(names, num), slot(names, den)) for c, names, num, den in live)
        self.monomials = tuple(monomials)
        self.polys = tuple(polys)
        self.constants = tuple(constants)

    def values(self, monomial_values: Sequence) -> List:
        """Each polynomial's sum of coefficient times monomial value."""
        return [sum([n * monomial_values[k] for k, n in p]) for p in self.polys]


class FormalSum:
    """Canonical Q-linear combination of RatFunc arguments."""

    __slots__ = ("terms", "_hash", "_plan")

    def __init__(self, terms: Iterable[Tuple[Fraction, RatFunc]] = ()):
        # cancelled serialization -> [representative, accumulated coefficient];
        # the first object seen for a function represents it, and the terms
        # are sorted by the representatives' own serializations
        merged: Dict[str, list] = {}
        for coeff, arg in terms:
            c = Fraction(coeff)
            if c == 0:
                continue
            key = arg.cancelled().serialize()
            entry = merged.get(key)
            if entry is None:
                merged[key] = [arg, c]
            else:
                entry[1] += c
        collected = [(acc, rep) for rep, acc in merged.values() if acc != 0]
        collected.sort(key=lambda t: t[1].serialize())
        self.terms = tuple(collected)
        self._hash = None
        self._plan = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def single(arg: RatFunc, coeff=1) -> "FormalSum":
        return FormalSum([(Fraction(coeff), arg)])

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
        out._plan = None
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
        """The variables some argument has positive degree in, sorted."""
        return self.plan().variables

    def plan(self) -> ArgumentPlan:
        """The sum's ArgumentPlan, built on first use and kept."""
        if self._plan is None:
            self._plan = ArgumentPlan(self.terms)
        return self._plan

    def nonconstant_part(self) -> "FormalSum":
        return FormalSum([(c, a) for c, a in self.terms if not a.is_constant()])

    def coefficient_of(self, arg: RatFunc) -> Fraction:
        key = arg.cancelled().serialize()
        for c, a in self.terms:
            if a.cancelled().serialize() == key:
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


# ---------------------------------------------------------------------------
# Automorphisms, closure, orbits
# ---------------------------------------------------------------------------

class Automorphism:
    """Field automorphism of Q(vars), given by its images on the variables.

    Images are stored gcd-cancelled so every automorphism has one canonical
    key, their serializations; equality and hashing use that key.
    ``_monomial`` holds (q, m) per variable when every image is q·x^m
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
        the images of the variables f depends on.  With v -> q_v·x^m_v and
        D_v the degree of v in f, a term c·prod v^e_v of ``f.cleared()`` maps
        to c·prod (a_v^e_v b_v^(D_v - e_v))·x^(sum e_v m_v), q_v = a_v/b_v,
        read from ``power_table(q_v, D_v)``: the image times the positive
        integer prod b_v^D_v, which the constructor's normalization removes.
        The common monomial is then divided out.
        """
        mono = self._monomial
        n = len(self.variables)
        num, den = f.cleared()
        maps = []
        vs = set()
        for i, (v, d) in enumerate(zip(f.vars, map(max, zip(*num, *den)))):
            if d:
                q, mv = mono[v]
                maps.append((i, power_table(q, d), mv))
                vs.update(self.images[v].vars)
        vs = tuple(sorted(vs))

        def image(p: IntPoly) -> List[Tuple[List[int], int]]:
            out = []
            for exp, a in p.items():
                m = [0] * n
                for i, table, mv in maps:
                    e = exp[i]
                    a *= table[e]
                    if e:
                        m = [x + e * y for x, y in zip(m, mv)]
                out.append((m, a))
            return out

        num, den = image(num), image(den)
        low = [min(col) for col in zip(*(m for m, _ in num + den))]
        pos = {v: i for i, v in enumerate(self.variables)}
        cols = [pos.get(w) for w in vs]

        def poly(terms) -> MultiPoly:
            return MultiPoly.from_ints(
                vs, ((tuple([0 if i is None else m[i] - low[i] for i in cols]), a) for m, a in terms)
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
) -> "Dict[str, Tuple[Fraction, Tuple[int, ...]]] | None":
    """{v: (q, m)} when each image is q·x^m with det(m rows) = ±1, else None."""
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
        out[v] = (Fraction(nc, dc), tuple(m))
    if abs(_det([out[v][1] for v in variables])) != 1:
        return None
    return out


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination, whose
    divisions by the previous pivot are exact (every entry is a minor)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row, p = m[k], m[k][k]
        for i in range(k + 1, n):
            a = m[i][k]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], row)]
        prev = p
    return sign * m[-1][-1] if n else 1


#: Most elements an ``orbit`` or a ``group_order`` group may have:
#: ``group_closure``'s default bound.
_ORBIT_LIMIT = 1024


def group_closure(generators: Sequence[Automorphism], bound: int = 1024) -> List[Automorphism]:
    """Full closure of the generators under composition, including identity.

    Breadth-first search over the generators' permutations of the orbit of
    the variables (``_orbit``, see the module docstring); raises
    ClosureBoundExceeded if more than ``bound`` elements appear, or more than
    ``bound`` orbit elements per variable, and DomainError if the generators
    act on different variable sets or an image leaves them.  The result is
    sorted by canonical image key, so its order is deterministic.
    """
    variables, members, elements = _closure(generators, bound)
    group = [Automorphism(dict(zip(variables, (members[i] for i in x)))) for x in elements]
    return sorted(group, key=lambda a: a._key)


def group_order(generators: Sequence[Automorphism]) -> int:
    """Number of elements of the group the generators generate: the length
    of ``group_closure(generators)``, from the same search, with no element
    built.  Raises as ``group_closure`` does at its default bound."""
    return len(_closure(generators, _ORBIT_LIMIT)[2])


def _orbit(
    seeds: Sequence[RatFunc], generators: Sequence[Automorphism], limit: int
) -> Tuple[List[RatFunc], List[List[int]]]:
    """The orbit of the cancelled, pairwise distinct ``seeds`` under the
    generators, breadth-first, and each generator as a map on its indices.

    Each generator is applied once to each member, and the image is cancelled
    and filed by its serialization.  Raises ClosureBoundExceeded when the
    orbit grows past ``limit`` members.
    """
    members = list(seeds)
    index = {f.serialize(): i for i, f in enumerate(members)}
    perms: List[List[int]] = [[] for _ in generators]
    for f in members:  # grows while it is read
        for g, perm in zip(generators, perms):
            image = g.apply(f).cancelled()
            i = index.setdefault(image.serialize(), len(members))
            if i == len(members):
                members.append(image)
                if len(members) > limit:
                    raise ClosureBoundExceeded(f"orbit exceeded {limit} elements")
            perm.append(i)
    return members, perms


def _closure(
    generators: Sequence[Automorphism], bound: int
) -> Tuple[Tuple[str, ...], List[RatFunc], Set[Tuple[int, ...]]]:
    """The variables, their orbit O under the generators, and the group's
    elements as tuples of the indices in O of their images of the
    variables."""
    if not generators:
        raise DomainError("need at least one generator")
    variables = generators[0].variables
    if any(g.variables != variables for g in generators):
        raise DomainError("automorphisms act on different variable sets")
    members, perms = _orbit(
        [RatFunc.var(v).cancelled() for v in variables], generators, len(variables) * bound
    )
    # an element is the tuple of its images' indices, and (g∘x)(v) = g(x(v))
    ident = tuple(range(len(variables)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for perm in perms:
            for x in frontier:
                y = tuple(perm[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    new_frontier.append(y)
                    if len(seen) > bound:
                        raise ClosureBoundExceeded(
                            f"closure exceeded the bound of {bound} elements"
                        )
        frontier = new_frontier
    return variables, members, seen


def orbit(x: RatFunc, generators: Sequence[Automorphism]) -> List[RatFunc]:
    """Distinct images of x under the group the generators generate.

    Any generating set serves, a whole group too.  Returns the cancelled
    images sorted by serialization; raises ClosureBoundExceeded past
    ``_ORBIT_LIMIT`` of them.
    """
    members, _ = _orbit([x.cancelled()], generators, _ORBIT_LIMIT)
    return sorted(members, key=RatFunc.serialize)
