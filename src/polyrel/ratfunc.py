"""Exact rational functions over Q, cross ratios, and projective values.

A RatFunc is a pair of MultiPoly (num, den) over a shared variable set.  It
is stored *unreduced*: no gcd cancellation happens during arithmetic, only a
cheap normalization (the denominator is made integral, coprime and with a
positive leading coefficient in graded-lex order).  Equality of the functions
they represent is decided by cross-multiplication (`equivalent`), never by
reduction.  `cancelled()` produces the gcd-reduced canonical representative
when a unique key is genuinely needed (group closures, class merging).  The
gcd is computed here, by a port of sympy's heuristic gcd on integer
coefficients; sympy itself is imported only if the heuristic fails.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Mapping, Tuple, Union

from .exact import DomainError
from .poly import MultiPoly, packed_product

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

Scalar = Union[int, Fraction]
IntPoly = Dict[Tuple[int, ...], int]


class RatFunc:
    """Quotient of two multivariate polynomials over Q."""

    __slots__ = ("num", "den", "_cancelled", "_hash", "_class_key")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num, den = MultiPoly.align(num, den)
        if den.is_zero():
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero():
            num = MultiPoly.zero(den.vars)
            den = MultiPoly.const(1, den.vars)
        else:
            c = den.content()
            if c != 1:
                num = num * (1 / c)
                den = den * (1 / c)
            if den.leading()[1] < 0:
                num = -num
                den = -den
        self.num = num
        self.den = den
        self._cancelled = None
        self._hash = None
        self._class_key = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_value(value: Scalar, variables=()) -> "RatFunc":
        return RatFunc(MultiPoly.const(Fraction(value), variables), MultiPoly.const(1, variables))

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

    def pow_int(self, n: int, limit: int = 64) -> "RatFunc":
        """Integer power, expanded eagerly; |n| capped to guard against blowup."""
        if abs(n) > limit:
            raise DomainError(f"exponent {n} exceeds the configured limit {limit}")
        if n < 0:
            return self.inv().pow_int(-n, limit)
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

    def equivalent_up_to_inversion(self, other: "RatFunc | Scalar") -> bool:
        other = RatFunc.coerce(other)
        if self.equivalent(other):
            return True
        if other.is_zero():
            return self.is_zero()
        return self.equivalent(other.inv())

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
        the tables of the images of the variables self depends on.  Each
        image's num and den are cleared to integers over one common
        denominator, and so are self's coefficients; that scales the result's
        numerator and denominator by one positive constant, which the
        constructor's normalization removes.  Exponent vectors are packed
        into one int, each field wide enough for the largest exponent any
        product can reach.  Products go through ``poly.packed_product``, the
        loop behind ``MultiPoly.__mul__``, and sums likewise drop a term that
        cancels to zero, so the terms come out in the order of the plain
        Fraction expansion.
        """
        missing = [v for v in self.vars if v not in binding]
        if missing:
            raise DomainError(f"unbound variables in substitution: {missing}")
        maxexp = {
            v: max(self.num.degree_in(v), self.den.degree_in(v)) for v in self.vars
        }
        images = {v: RatFunc.coerce(binding[v]) for v in self.vars if maxexp[v]}
        vs = tuple(sorted({w for image in images.values() for w in image.vars}))
        pos = {w: i for i, w in enumerate(vs)}
        top = [0] * len(vs)
        for v, image in images.items():
            for w in image.vars:
                top[pos[w]] += maxexp[v] * max(image.num.degree_in(w), image.den.degree_in(w))
        width = max(top, default=0).bit_length() + 1

        def packed(p: MultiPoly, scale: int) -> list:
            shifts = [pos[w] * width for w in p.vars]
            return [
                (sum(e << sh for e, sh in zip(exp, shifts)), c.numerator * (scale // c.denominator))
                for exp, c in p.terms.items()
            ]

        pows = {}
        for v, image in images.items():
            cleared = _common_denominator(image)
            n, d = packed(image.num, cleared), packed(image.den, cleared)
            n_p, d_p = [None, n], [None, d]
            for _ in range(maxexp[v] - 1):
                n_p.append(packed_product(n_p[-1], n).items())
                d_p.append(packed_product(d_p[-1], d).items())
            pows[v] = (n_p, d_p)
        scale = _common_denominator(self)
        mask = (1 << width) - 1

        def expand(p: MultiPoly) -> MultiPoly:
            total: Dict[int, int] = {}
            for exp, c in p.terms.items():
                term = [(0, c.numerator * (scale // c.denominator))]
                for v, e in zip(p.vars, exp):
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
            return MultiPoly._trusted(
                vs,
                {
                    tuple([(k >> (i * width)) & mask for i in range(len(vs))]): Fraction(a)
                    for k, a in total.items()
                },
            )

        new_num = expand(self.num)
        new_den = expand(self.den)
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

        The only place multivariate gcd enters the package; results are
        cached per instance.
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
        """Expression-grammar string; canonical for canonical representations."""
        num_s = self.num.to_expr_string()
        if self.den.is_constant() and self.den.constant_value() == 1:
            return f"({num_s})"
        return f"({num_s})/({self.den.to_expr_string()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.serialize()!r})"


def _common_denominator(f: RatFunc) -> int:
    """The lcm of the denominators of f's coefficients, num and den together."""
    return lcm(*(c.denominator for p in (f.num, f.den) for c in p.terms.values()))


def _sympy_cancel(f: RatFunc) -> RatFunc:
    """Divide num and den by their gcd over ZZ (the name the benchmark's span
    table in perfbench/spans.py wraps).

    Both polynomials are cleared to integers over one common denominator,
    which leaves the function unchanged.  The cofactors come from
    ``_heu_gcd``, a port of sympy's heuristic gcd (``dmp_zz_heu_gcd``); if it
    fails at every evaluation point, sympy's ``cofactors`` over ZZ computes
    them instead, imported only then.  The cofactor terms are inserted in
    ascending lex order of their exponents, the order of sympy's
    ``dmp_to_dict``, and the constructor's normalization then gives the
    canonical representative.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 1989): evaluate f
    and g at x_0 = ξ, take the gcd of the images, and read a candidate back
    from the balanced base-ξ digits of the image gcd, or of one cofactor
    image.  If ξ >= 2·min(‖f‖, ‖g‖) + 2 (max norms), a candidate that divides
    both inputs exactly is their gcd.  The first ξ is sympy's
    max(min(B, 99·isqrt(B)), 2·min(‖f‖/|lc f|, ‖g‖/|lc g|) + 4) with
    B = 2·min(‖f‖, ‖g‖) + 29: B alone meets the condition whenever the smaller
    norm is at most 4,850, and the second term keeps ξ above twice the Cauchy
    root bound of one input.  Each retry raises ξ to 73794·ξ·isqrt(isqrt(ξ))
    // 27011.
    """
    scale = _common_denominator(f)
    num, den = (
        {e: c.numerator * (scale // c.denominator) for e, c in p.terms.items()}
        for p in (f.num, f.den)
    )
    try:
        _, pn, pd = _heu_gcd(num, den)
    except _HeuristicGCDFailed:
        pn, pd = _sympy_cofactors(f.vars, num, den)
    return RatFunc(_lex_poly(f.vars, pn), _lex_poly(f.vars, pd))


def _lex_poly(vs: Tuple[str, ...], p: IntPoly) -> MultiPoly:
    return MultiPoly._trusted(vs, {e: Fraction(c) for e, c in sorted(p.items())})


def _sympy_cofactors(vs: Tuple[str, ...], num: IntPoly, den: IntPoly) -> Tuple[IntPoly, IntPoly]:
    """num / gcd and den / gcd by sympy's ``Poly.cofactors`` over ZZ."""
    import sympy

    syms = sympy.symbols(vs)
    if not isinstance(syms, tuple):
        syms = (syms,)
    pn, pd = (sympy.Poly.from_dict(p, *syms, domain="ZZ") for p in (num, den))
    _, pn, pd = pn.cofactors(pd)
    return tuple(
        {tuple(map(int, e)): int(c) for e, c in sp.as_dict(native=True).items()}
        for sp in (pn, pd)
    )


# -- heuristic gcd over ZZ ----------------------------------------------------------
#
# Polynomials are {exponent tuple: nonzero int} dicts (IntPoly) over one
# variable table; tuple order is lex order with the first variable most
# significant.

#: Evaluation points tried per level before giving up (sympy's HEU_GCD_MAX).
_HEU_GCD_TRIES = 6


class _HeuristicGCDFailed(ArithmeticError):
    """No evaluation point gave a candidate that divides both inputs."""


def _heu_gcd(f: IntPoly, g: IntPoly) -> Tuple[IntPoly, IntPoly, IntPoly]:
    """(h, f / h, g / h) for h = gcd(f, g), f and g nonzero.

    sympy's ``dmp_zz_heu_gcd`` on sparse dicts: the first variable is
    evaluated at ξ and the gcd of the images is taken recursively, down to
    integers.  A candidate is accepted through one of three exact divisions:
    the interpolated gcd divides f and g, or the interpolated cofactor of f
    (then of g) divides f (g) and the quotient divides the other input.
    Kronecker images of several variables at once would not do: they do not
    preserve coprimality.  Raises _HeuristicGCDFailed after
    ``_HEU_GCD_TRIES`` points.
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
    for _ in range(_HEU_GCD_TRIES):
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
    raise _HeuristicGCDFailed("no evaluation point gave the gcd")


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
