"""Exact rational functions over Q, cross ratios, and projective values.

A RatFunc is a pair of MultiPoly (num, den) over a shared variable set.  It
is stored *unreduced*: no gcd cancellation happens during arithmetic, only a
cheap normalization on the integer side (``cleared()`` num and den, divided
by the content of den's ints signed by its graded-lex leading coefficient,
so den is integral, primitive and leads positive).  A den of 1 already is,
so a function over 1 skips the normalization.  `equivalent` decides
equality of the functions by cross-multiplication.  `cancelled()` produces
the gcd-reduced canonical representative, and its serialization is the one
key by which the package identifies a function (FormalSum terms, group
closures, orbits, inversion classes); each RatFunc caches its cancelled form
and its serialization.

Composition and the gcd run on poly's integer form: ``cleared()`` gives num
and den as IntPolys over one common denominator, which leaves the function
unchanged, and results come back through ``MultiPoly.from_ints``.  The gcd
is a port of sympy's heuristic gcd on IntPolys (``_heu_gcd``), which tries
evaluation points until exact division accepts a candidate; the package
imports no sympy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, List, Mapping, Tuple, Union

from .exact import DomainError
from .poly import IntPoly, MultiPoly, cleared, pack, packed_product, unpack

__all__ = [
    "POLE",
    "INDETERMINATE",
    "INFINITY",
    "RatFunc",
    "cross_ratio",
    "ZeroDenominator",
]


class ZeroDenominator(ZeroDivisionError):
    """A composition or division produced an identically-zero denominator."""


class _Tagged:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Evaluation hit a pole (den = 0, num != 0).
POLE = _Tagged("Pole")
#: Evaluation was 0/0 (caller should resample the point).
INDETERMINATE = _Tagged("Indeterminate")
#: The point at infinity of P^1 (a tagged value, never a sentinel number).
INFINITY = _Tagged("Infinity")

#: Largest |n| ``RatFunc.pow_int`` (and so the expression grammar's ``^``) takes.
EXPONENT_LIMIT = 64

Scalar = Union[int, Fraction]


class RatFunc:
    """Quotient of two multivariate polynomials over Q."""

    __slots__ = ("num", "den", "_cancelled", "_live", "_hash", "_class_key", "_serial")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num, den = MultiPoly.align(num, den)
        if den.is_zero():
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero():
            num = MultiPoly.zero(den.vars)
            den = MultiPoly.const(1, den.vars)
        elif not _is_one(den):  # den = 1 is integral, primitive and leads positive
            scale, (n, d) = cleared(num, den)
            g = gcd(*d.values())
            if den.leading()[1] < 0:
                g = -g
            if scale != 1 or g != 1:
                num = MultiPoly.from_ints(num.vars, n.items(), g)
                den = MultiPoly.from_ints(den.vars, [(e, a // g) for e, a in d.items()])
        self.num = num
        self.den = den
        self._cancelled = None
        self._live = None
        self._hash = None
        self._class_key = None
        self._serial = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_value(value: Scalar, variables=()) -> "RatFunc":
        return RatFunc(MultiPoly.const(value, variables), MultiPoly.const(1, variables))

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc(MultiPoly.var(name), MultiPoly.const(1, [name]))

    @staticmethod
    def coerce(value: "RatFunc | Scalar") -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return RatFunc.from_value(value)

    # -- structure -----------------------------------------------------------

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def cleared(self) -> List[IntPoly]:
        """[num, den] times the lcm of all their coefficient denominators."""
        return cleared(self.num, self.den)[1]

    def live_cleared(self) -> Tuple[Tuple[str, ...], Tuple[int, ...], frozenset, frozenset]:
        """(names, degrees, num, den), computed once per object.

        ``names`` are the variables the function has positive degree in, in
        table order, and ``degrees`` the largest exponent of each over num
        and den together.  num and den are ``cleared()`` with exponents
        restricted to ``names``, frozen as sets of (exponent, coefficient)
        pairs so that equal polynomials compare equal; when every variable
        is live, the cleared items are frozen as they are.  A constant has
        no names.
        """
        if self._live is None:
            top = [max(column) for column in zip(*self.num.terms, *self.den.terms)]
            live = [i for i, e in enumerate(top) if e]
            if len(live) == len(top):  # every variable live: the items as they are
                num, den = (frozenset(p.items()) for p in self.cleared())
            else:
                num, den = (
                    frozenset((tuple([exp[i] for i in live]), n) for exp, n in p.items())
                    for p in self.cleared()
                )
            self._live = (tuple(self.vars[i] for i in live), tuple(top[i] for i in live), num, den)
        return self._live

    def depends_on(self, name: str) -> bool:
        """True iff the function genuinely varies with `name`.

        Uses the cross-derivative test num'·den - num·den' != 0, which sees
        through uncancelled common factors.
        """
        if self.num.degree_in(name) == 0 and self.den.degree_in(name) == 0:
            return False
        lhs = self.num.derivative(name) * self.den
        rhs = self.num * self.den.derivative(name)
        return lhs != rhs

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        if other.is_zero():
            raise ZeroDenominator("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) / self

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDenominator("inverse of the zero function")
        return self._keep_reduced(RatFunc(self.den, self.num))

    def pow_int(self, n: int) -> "RatFunc":
        """Integer power, expanded eagerly; |n| <= ``EXPONENT_LIMIT`` guards against blowup."""
        if abs(n) > EXPONENT_LIMIT:
            raise DomainError(f"exponent {n} exceeds the limit {EXPONENT_LIMIT}")
        if n < 0:
            return self.inv().pow_int(-n)
        return self._keep_reduced(RatFunc(self.num ** n, self.den ** n))

    def _keep_reduced(self, out: "RatFunc") -> "RatFunc":
        """Mark ``out`` as its own cancelled form when self is one.

        For the inverse and powers of a reduced p/q: coprime p, q stay coprime
        in q/p and p^n/q^n, and the constructor's normalization then gives the
        canonical representative.
        """
        if self._cancelled is self:
            out._cancelled = out
        return out

    def __pow__(self, n: int) -> "RatFunc":
        return self.pow_int(n)

    # -- equality -------------------------------------------------------------

    def equivalent(self, other: "RatFunc | Scalar") -> bool:
        """Equality as functions, by cross-multiplication."""
        other = RatFunc.coerce(other)
        return self.num * other.den == other.num * self.den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- substitution / evaluation ---------------------------------------------

    def substitute(self, binding: Mapping[str, "RatFunc | Scalar"]) -> "RatFunc":
        """Exact composition; every variable of self must be bound.

        The expansion runs on integers over one variable table, the union of
        the tables of the images of the variables self depends on.  Self and
        each image enter ``cleared``, which scales the result's numerator and
        denominator by one positive constant that the constructor's
        normalization removes.  Exponent vectors are packed (``poly.pack``),
        each field wide enough for the largest exponent any product can
        reach.  Products go through ``poly.packed_product``, the loop behind
        ``MultiPoly.__mul__``, and sums likewise drop a term that cancels to
        zero, so the terms come out in the order of the plain Fraction
        expansion.
        """
        missing = [v for v in self.vars if v not in binding]
        if missing:
            raise DomainError(f"unbound variables in substitution: {missing}")
        num, den = self.cleared()
        maxexp = dict(zip(self.vars, map(max, zip(*num, *den))))
        images = {v: RatFunc.coerce(binding[v]) for v in self.vars if maxexp[v]}
        vs = tuple(sorted({w for image in images.values() for w in image.vars}))
        pos = {w: i for i, w in enumerate(vs)}
        top = [0] * len(vs)
        cleared_images = {}
        for v, image in images.items():
            n, d = cleared_images[v] = image.cleared()
            for w, e in zip(image.vars, map(max, zip(*n, *d))):
                top[pos[w]] += maxexp[v] * e
        width = max(top, default=0).bit_length() + 1

        pows = {}
        for v, image in images.items():
            shifts = [pos[w] * width for w in image.vars]
            n, d = (pack(p, shifts) for p in cleared_images[v])
            n_p, d_p = [None, n], [None, d]
            for _ in range(maxexp[v] - 1):
                n_p.append(packed_product(n_p[-1], n).items())
                d_p.append(packed_product(d_p[-1], d).items())
            pows[v] = (n_p, d_p)
        shifts = range(0, width * len(vs), width)

        def expand(p: IntPoly) -> MultiPoly:
            total: Dict[int, int] = {}
            for exp, c in p.items():
                term = [(0, c)]
                for v, e in zip(self.vars, exp):
                    if v in pows:
                        n_p, d_p = pows[v]
                        co = maxexp[v] - e
                        if e:
                            term = packed_product(term, n_p[e]).items()
                        if co:
                            term = packed_product(term, d_p[co]).items()
                for k, a in term:
                    a += total.get(k, 0)
                    if a:
                        total[k] = a
                    else:
                        del total[k]
            return MultiPoly.from_ints(vs, unpack(total, shifts, width))

        new_num, new_den = expand(num), expand(den)
        if new_den.is_zero():
            raise ZeroDenominator("substitution produced an identically-zero denominator")
        return RatFunc(new_num, new_den)

    def evaluate(self, point: Mapping[str, Scalar]):
        """Exact evaluation; returns Fraction, POLE, or INDETERMINATE."""
        den, den_scale = self.den.evaluate_ratio(point)
        num, num_scale = self.num.evaluate_ratio(point)
        if den == 0:
            return INDETERMINATE if num == 0 else POLE
        return Fraction(num * den_scale, num_scale * den)

    def evaluate_in(self, point: Mapping[str, object], coerce):
        """Evaluation in another domain (e.g. arbitrary-precision complex).

        Returns (value, ok) where ok=False flags a vanishing denominator in
        the target domain.
        """
        den = self.den.evaluate_in(point, coerce)
        if den == 0:
            return None, False
        num = self.num.evaluate_in(point, coerce)
        return num / den, True

    # -- canonical reduced form --------------------------------------------------

    def cancelled(self) -> "RatFunc":
        """Gcd-reduced representative (unique canonical form).

        The gcd is ``_heu_gcd``'s (``verify._squarefree`` runs it too, on
        univariate polynomials); results are cached per instance.
        """
        if self._cancelled is not None:
            return self._cancelled
        if self.is_zero() or (self.num.is_constant() and self.den.is_constant()):
            out = RatFunc.from_value(
                0 if self.is_zero() else self.constant_value(), self.vars
            )
        else:
            out = _sympy_cancel(self)
        out._cancelled = out
        self._cancelled = out
        return out

    def serialize(self) -> str:
        """Expression-grammar string; canonical for canonical representations.

        Computed once per object, and shared with the cancelled form when
        the gcd cancelled nothing (the same term maps over the same
        variables serialize alike).
        """
        if self._serial is None:
            c = self._cancelled
            if (
                c is not None
                and c is not self
                and c.vars == self.vars
                and c.num.terms == self.num.terms
                and c.den.terms == self.den.terms
            ):
                self._serial = c.serialize()
                return self._serial
            num_s = self.num.to_expr_string()
            if _is_one(self.den):
                self._serial = f"({num_s})"
            else:
                self._serial = f"({num_s})/({self.den.to_expr_string()})"
        return self._serial

    def __repr__(self) -> str:
        return f"RatFunc({self.serialize()!r})"


def _is_one(p: MultiPoly) -> bool:
    """True iff p is the constant 1."""
    return len(p.terms) == 1 and p.terms.get((0,) * len(p.vars)) == 1


def _sympy_cancel(f: RatFunc) -> RatFunc:
    """Divide num and den by their gcd over ZZ (the name the benchmark's span
    table in perfbench/spans.py wraps).

    Both polynomials enter as ``f.cleared()``, which leaves the function
    unchanged, and the cofactors come from ``_heu_gcd``.  They go back
    through ``MultiPoly.from_ints`` in ascending lex order of their
    exponents, the order of sympy's ``dmp_to_dict``, and the constructor's
    normalization then gives the canonical representative.
    """
    num, den = f.cleared()
    _, pn, pd = _heu_gcd(num, den)
    return RatFunc(*(MultiPoly.from_ints(f.vars, sorted(p.items())) for p in (pn, pd)))


# -- heuristic gcd over ZZ ----------------------------------------------------------
#
# Polynomials are IntPolys over one variable table; tuple order is lex order
# with the first variable most significant.


def _heu_gcd(f: IntPoly, g: IntPoly) -> Tuple[IntPoly, IntPoly, IntPoly]:
    """(h, f / h, g / h) for h = gcd(f, g), f and g nonzero.

    A port of sympy's ``dmp_zz_heu_gcd`` on sparse dicts, GCDHEU (Char,
    Geddes and Gonnet, J. Symbolic Comput. 1989): the first variable is
    evaluated at ξ, the gcd of the images is taken recursively, down to
    integers, and a candidate is read back from the balanced base-ξ digits
    of the image gcd, or of one cofactor image.  It is accepted through one
    of three exact divisions: the interpolated gcd divides f and g, or the
    interpolated cofactor of f (then of g) divides f (g) and the quotient
    divides the other input.  If ξ >= 2·min(‖f‖, ‖g‖) + 2 (max norms), a
    candidate that divides both inputs is their gcd; the code takes every
    accepted candidate to be the gcd.  Kronecker images of several
    variables at once would not do: they do not preserve coprimality.

    The first ξ is sympy's max(min(B, 99·isqrt(B)), 2·min(‖f‖/|lc f|,
    ‖g‖/|lc g|) + 4) with B = 2·min(‖f‖, ‖g‖) + 29: B alone meets the
    condition whenever the smaller norm is at most 4,850, and the second
    term keeps ξ above twice the Cauchy root bound of one input.  Each retry
    raises ξ to 73794·ξ·isqrt(isqrt(ξ)) // 27011.  There is no cap on the
    retries, because the loop ends:

    - Write f = h·a and g = h·b with h = gcd(f, g), primitive once the joint
      content is divided out, and x' for the variables after the first, x1.
      Then a and b are coprime in Q(x')[x1], so s·a + t·b = r with s, t in
      Z[x1, x'] and some nonzero r in Z[x'].
    - At x1 = ξ the images' gcd is ±h(ξ)·D, where D = gcd(a(ξ), b(ξ))
      divides r.
    - D is non-constant only if some irreducible factor p of r divides both
      a(ξ) and b(ξ).  But p does not divide both a and b, so one of them is
      a nonzero polynomial in x1 over the domain Z[x']/(p), with at most its
      degree of roots ξ.
    - f(ξ) = 0 or g(ξ) = 0 (a point that is skipped) also happens for
      finitely many ξ.
    - At every other ξ, D is an integer c that divides the content of r.
      Once ξ > 2·cont(r)·‖h‖, the balanced base-ξ digits of ±c·h(ξ) are
      the coefficients of ±c·h, ``_primitive`` gives ±h, and both exact
      divisions succeed.
    - ξ starts at 4 or more and at least doubles each round
      (73794/27011 > 2), so the loop gets past every bad value and every
      bound.  The recursive call ends by induction on the number of
      variables.
    """
    if () in f:
        a, b = f[()], g[()]
        c = gcd(a, b)
        return {(): c}, {(): a // c}, {(): b // c}
    cont = gcd(*f.values(), *g.values())
    if cont != 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    xi = max(
        min(bound, 99 * isqrt(bound)),
        2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4,
    )
    while True:
        ff, gg = _eval_first(f, xi), _eval_first(g, xi)
        if ff and gg:
            h, cff, cfg = _heu_gcd(ff, gg)
            h = _primitive(_interpolate(h, xi))
            q = _exact_quotient(f, h)
            if q is not None:
                r = _exact_quotient(g, h)
                if r is not None:
                    return _times(h, cont), q, r
            cff = _interpolate(cff, xi)
            h = _exact_quotient(f, cff)
            if h is not None:
                r = _exact_quotient(g, h)
                if r is not None:
                    return _times(h, cont), cff, r
            cfg = _interpolate(cfg, xi)
            h = _exact_quotient(g, cfg)
            if h is not None:
                q = _exact_quotient(f, h)
                if q is not None:
                    return _times(h, cont), q, cfg
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _eval_first(f: IntPoly, xi: int) -> IntPoly:
    """f with its first variable set to xi, over the remaining variables."""
    powers = [1]
    for _ in range(max(e[0] for e in f)):
        powers.append(powers[-1] * xi)
    out: IntPoly = {}
    for e, c in f.items():
        k = e[1:]
        out[k] = out.get(k, 0) + c * powers[e[0]]
    return {k: c for k, c in out.items() if c}


def _interpolate(h: IntPoly, xi: int) -> IntPoly:
    """The polynomial in one more (first) variable whose coefficients are the
    balanced base-xi digits of h's, with a positive lex leading coefficient."""
    out: IntPoly = {}
    half = xi // 2
    k = 0
    while h:
        rest = {}
        for e, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(k,) + e] = d
            c = (c - d) // xi
            if c:
                rest[e] = c
        h = rest
        k += 1
    if out[max(out)] < 0:
        return {e: -c for e, c in out.items()}
    return out


def _primitive(h: IntPoly) -> IntPoly:
    c = gcd(*h.values())
    return h if c == 1 else {e: a // c for e, a in h.items()}


def _times(h: IntPoly, c: int) -> IntPoly:
    return h if c == 1 else {e: a * c for e, a in h.items()}


def _exact_quotient(f: IntPoly, h: IntPoly) -> "IntPoly | None":
    """f / h if h divides f in Z[X], else None.

    Long division by lex leading terms.  A quotient exponent outside the box
    deg(f) - deg(h), variable by variable, proves h does not divide f, which
    also bounds the loop.
    """
    lm = max(h)
    lc = h[lm]
    room = [max(a) - max(b) for a, b in zip(zip(*f), zip(*h))]
    if min(room) < 0:
        return None
    q: IntPoly = {}
    r = dict(f)
    while r:
        m = max(r)
        a, rem = divmod(r[m], lc)
        qm = tuple([i - j for i, j in zip(m, lm)])
        if rem or any(d < 0 or d > top for d, top in zip(qm, room)):
            return None
        q[qm] = a
        for e, b in h.items():
            k = tuple([i + j for i, j in zip(qm, e)])
            s = r.get(k, 0) - a * b
            if s:
                r[k] = s
            else:
                del r[k]
    return q


ProjPoint = Union[RatFunc, Scalar, _Tagged]


def cross_ratio(x: ProjPoint, y: ProjPoint, z: ProjPoint, w: ProjPoint):
    """Cross ratio (x-z)/(x-w) * (y-w)/(y-z) on P^1.

    Inputs may be rational functions, rationals, or INFINITY.  Factors that
    contain an infinite point are dropped (the limit convention).  Coincident
    point pairs yield the constants 0, 1 or INFINITY; three or more
    coincident points (in particular all four equal) raise DomainError.
    """
    pts = [p if p is INFINITY else RatFunc.coerce(p) for p in (x, y, z, w)]

    def same(a, b) -> bool:
        if a is INFINITY or b is INFINITY:
            return a is b
        return a.equivalent(b)

    coincident = sum(1 for i in range(4) for j in range(i + 1, 4) if same(pts[i], pts[j]))
    if coincident >= 3:
        raise DomainError("cross ratio needs at most one coincident pair")
    px, py, pz, pw = pts
    if same(px, pz) or same(py, pw):
        return RatFunc.from_value(0)
    if same(px, pw) or same(py, pz):
        return INFINITY
    if same(px, py) or same(pz, pw):
        return RatFunc.from_value(1)

    num = RatFunc.from_value(1)
    den = RatFunc.from_value(1)
    if px is not INFINITY and pz is not INFINITY:
        num = num * (px - pz)
    if py is not INFINITY and pw is not INFINITY:
        num = num * (py - pw)
    if px is not INFINITY and pw is not INFINITY:
        den = den * (px - pw)
    if py is not INFINITY and pz is not INFINITY:
        den = den * (py - pz)
    return num / den
