"""Builders for every cataloged functional equation and structural object.

Each builder returns an EquationSpec: a named, weighted, canonical FormalSum
with validity constraints and a human reference label.  Arguments are exact
rational functions; the weight-7 entries are assembled from power products
of the irreducible factors t, 1-t, 1-t+t^2 (and the u-counterparts), which
keeps them in reduced form by construction.

Each distinct power product is built once per process and shared: the two
weight-7 sums make 868 calls for 517 distinct products, and the 220
arguments xi7_symmetric has in common with xi7_explicit are the same
objects, whose FormalSum merge key (the serialization of the cancelled form,
which is the product itself) each object computes once.
`_power_product` builds them on integers from cached one-variable parts, in
the term order of the sequential product.  No computed value depends on
that order, since the kernel test and the numeric drivers sum the argument
plan in integers; it keeps each product equal to the sequential one term
for term (tests/test_catalog.py checks the ordered term lists) and fixes
the order of ``RatFunc.evaluate_in``'s floating-point sum, the tests'
reference.

f17 is a building block (only differences of its specializations are
functional equations) and carries is_equation=False; the weight-4 family is
numeric-only (its arguments live in extension fields, so the rational
specialization route does not apply — the exact proof lives in
proofalgebra).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Dict, List, Tuple

from .exact import DomainError
from .formal import FormalSum
from .poly import IntPoly, MultiPoly, cleared
from .ratfunc import RatFunc

__all__ = [
    "EquationSpec",
    "five_term",
    "three_term",
    "goncharov22",
    "goncharov22_sym",
    "gamma_core",
    "f17",
    "f17_sum",
    "relation34",
    "gamma21",
    "gamma21_symmetrized",
    "fourlog",
    "xi7_explicit",
    "xi7_symmetric",
    "theta",
    "phi_alpha",
    "omega",
    "a_k_sets",
    "weight_wt",
    "s3_cosets",
    "XI7_BLOCKS",
    "get_equation",
    "equation_names",
]


@dataclass(frozen=True)
class EquationSpec:
    """A cataloged equation: weight, formal sum, constraints."""

    name: str
    weight: int
    sum: FormalSum
    constraints: str = ""
    reference: str = ""
    is_equation: bool = True
    numeric_only: bool = False

    @property
    def variables(self) -> Tuple[str, ...]:
        """The sum's variables, sorted (``FormalSum.variables``)."""
        return self.sum.variables()

    def to_json(self) -> dict:
        return {
            "schema": "polyrel/equation/1",
            "name": self.name,
            "weight": self.weight,
            "variables": list(self.variables),
            "constraints": self.constraints,
            "reference": self.reference,
            "is_equation": self.is_equation,
            "numeric_only": self.numeric_only,
            "sum": self.sum.serialize_terms(),
        }


def _v(name: str) -> RatFunc:
    return RatFunc.var(name)


def _reduced(rf: RatFunc) -> RatFunc:
    """rf, reduced by construction, marked as its own cancelled form."""
    rf._cancelled = rf
    return rf


ONE = RatFunc.from_value(1)


# ---------------------------------------------------------------------------
# Weight 2 and the small weight-3 relations
# ---------------------------------------------------------------------------

def five_term() -> EquationSpec:
    x, y = _v("x"), _v("y")
    s = FormalSum(
        [
            (1, x * y),
            (-1, x),
            (-1, y),
            (-1, (1 - x) / (1 - 1 / y)),
            (-1, (1 - y) / (1 - 1 / x)),
        ]
    )
    return EquationSpec(
        name="five_term",
        weight=2,
        sum=s,
        constraints="x, y, xy distinct from 0 and 1",
        reference="five-term dilogarithm relation (Abel, Spence)",
    )


def three_term() -> EquationSpec:
    x = _v("x")
    s = FormalSum([(1, x), (1, 1 / (1 - x)), (1, 1 - 1 / x), (-1, ONE)])
    return EquationSpec(
        name="three_term",
        weight=3,
        sum=s,
        constraints="x not in {0, 1}",
        reference="three-term trilogarithm relation",
    )


# ---------------------------------------------------------------------------
# The 22-term trilogarithm relation, original variables
# ---------------------------------------------------------------------------

def gamma_core(a1: RatFunc, a2: RatFunc, a3: RatFunc) -> FormalSum:
    """The 22-term combination evaluated at three arbitrary arguments."""
    alpha = {1: a1, 2: a2, 3: a3}

    def al(i: int) -> RatFunc:
        return alpha[(i - 1) % 3 + 1]

    beta = {i: 1 - al(i) + al(i) * al(i - 1) for i in (1, 2, 3)}

    def be(i: int) -> RatFunc:
        return beta[(i - 1) % 3 + 1]

    terms: List[Tuple[Fraction, RatFunc]] = []
    for i in (1, 2, 3):
        terms.append((Fraction(1), 1 / al(i)))
        terms.append((Fraction(1), be(i)))
        terms.append((Fraction(1), al(i) * al(i - 1) / be(i)))
        terms.append((Fraction(1), be(i) / (be(i + 1) * al(i + 2))))
        terms.append((Fraction(1), -be(i) * al(i + 1) / be(i + 1)))
    terms.append((Fraction(1), -1 / (al(1) * al(2) * al(3))))
    for i in (1, 2, 3):
        terms.append((Fraction(-1), be(i) / al(i - 1)))
        terms.append((Fraction(-1), be(i) / (be(i + 1) * al(i) * al(i - 1))))
        terms.append((Fraction(-1), ONE))
    return FormalSum(terms)


def goncharov22() -> EquationSpec:
    s = gamma_core(_v("a1"), _v("a2"), _v("a3"))
    return EquationSpec(
        name="goncharov22",
        weight=3,
        sum=s,
        constraints="all arguments distinct from 0, 1, infinity",
        reference="22-term trilogarithm relation (Goncharov)",
    )


def goncharov22_sym() -> EquationSpec:
    """Symmetric presentation on t1..t4 with t1 t2 t3 t4 = 1 eliminated."""
    t = {i: _v(f"t{i}") for i in (1, 2, 3)}
    t[4] = 1 / (t[1] * t[2] * t[3])
    terms: List[Tuple[Fraction, RatFunc]] = []
    for i in range(1, 5):
        terms.append((Fraction(1), t[i]))
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                terms.append((Fraction(1), (1 - t[i]) / (1 - 1 / t[j])))
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                terms.append((Fraction(-1, 4), t[i] * t[j]))
    for (i, j, k, l) in permutations((1, 2, 3, 4)):
        arg = ((1 - t[i]) * (1 - t[j])) / ((1 - 1 / t[k]) * (1 - 1 / t[l]))
        terms.append((Fraction(-1, 8), arg))
    terms.append((Fraction(-3), ONE))
    return EquationSpec(
        name="goncharov22_sym",
        weight=3,
        sum=FormalSum(terms),
        constraints="t1 t2 t3 t4 = 1; all arguments distinct from 0, 1, infinity",
        reference="22-term relation, four-variable symmetric presentation",
    )


# ---------------------------------------------------------------------------
# The 17-term block and the 34-term relation
# ---------------------------------------------------------------------------

def f17_sum(a: RatFunc, b: RatFunc, c: RatFunc, t: RatFunc) -> FormalSum:
    """The 17 generic terms of the degree-2 cross-ratio family, factored form."""
    plus = [
        (1 - c * t) * a / (a - t),
        (1 - c * t) * b / (b - t),
        (1 - c * t) / (c * (a - t)),
        (1 - c * t) / (c * (b - t)),
        (a * b * c - t) / ((a - t) * b * c),
        (a * b * c - t) / ((b - t) * a * c),
        (a * b * c - t) / (a - t),
        (a * b * c - t) / (b - t),
        (a - t) * b * (a * c - 1) / ((b - t) * a * (b * c - 1)),
        (t - a) * (1 - b * c) / ((t - b) * (1 - a * c)),
        (t * c - 1) * b * (a * c - 1) / ((a * b * c - t) * (b * c - 1)),
        (t * c - 1) * a * (b * c - 1) / ((a * b * c - t) * (a * c - 1)),
    ]
    minus = [
        (1 - c * t) * a * b * c / (a * b * c - t),
        (1 - c * t) / ((a * b * c - t) * c),
        (t - a) / (t - b),
        b * (a - t) / (a * (b - t)),
        (b - t) * (a - t) * c / ((a * b * c - t) * (1 - c * t)),
    ]
    return FormalSum(
        [(Fraction(1), g) for g in plus] + [(Fraction(-1), g) for g in minus]
    )


def f17() -> EquationSpec:
    s = f17_sum(_v("a"), _v("b"), _v("c"), _v("t"))
    return EquationSpec(
        name="f17",
        weight=3,
        sum=s,
        constraints="building block: only differences in t are functional equations",
        reference="17-term block of the 34-term relation",
        is_equation=False,
    )


def relation34() -> EquationSpec:
    a, b, c, t, u = (_v(n) for n in ("a", "b", "c", "t", "u"))
    s = f17_sum(a, b, c, t) - f17_sum(a, b, c, u)
    return EquationSpec(
        name="relation34",
        weight=3,
        sum=s,
        constraints="all arguments distinct from 0, 1, infinity",
        reference="34-term trilogarithm relation",
    )


# ---------------------------------------------------------------------------
# The 21-term combination
# ---------------------------------------------------------------------------

def gamma21() -> EquationSpec:
    x, y, z = _v("x"), _v("y"), _v("z")
    s = gamma_core(1 / (1 - x), (1 - x) / (1 - x * y), 1 - z) + gamma_core(
        1 - 1 / x, (1 - x * y) / (y * (1 - x)), z / (z - 1)
    )
    return EquationSpec(
        name="gamma21",
        weight=3,
        sum=s,
        constraints="all arguments distinct from 0, 1, infinity",
        reference="sum of two 22-term instances with one shared variable",
    )


def gamma21_symmetrized() -> EquationSpec:
    """Right-hand side of the symmetrization identity: 21 argument classes."""
    x = {1: _v("x1"), 2: _v("x2")}
    z = {1: _v("z1")}
    z[2] = 1 / (x[1] * x[2] * z[1])

    def j(t: RatFunc, u: RatFunc) -> RatFunc:
        return (1 - 1 / u) / (1 - t)

    jz = j(z[1], z[2])
    terms: List[Tuple[Fraction, RatFunc]] = [
        (Fraction(-2), x[1] * x[2]),
        (Fraction(-2), ONE),
    ]
    for i in (1, 2):
        jx = j(x[i], x[3 - i])
        terms += [
            (Fraction(2), x[i]),
            (Fraction(2), jx),
            (Fraction(2), z[i]),
            (Fraction(2), j(z[i], z[3 - i])),
            (Fraction(-2), x[i] * jz),
            (Fraction(-2), jx * jz),
            (Fraction(-2), x[i] * z[1]),
            (Fraction(-2), jx * z[1]),
        ]
    for i in (1, 2):
        jx = j(x[i], x[3 - i])
        terms.append((Fraction(1), x[i] * z[1] * jx * jz))
        terms.append((Fraction(1), jx * jz / (x[i] * z[1])))
    return EquationSpec(
        name="gamma21_symmetrized",
        weight=3,
        sum=FormalSum(terms),
        constraints="all arguments distinct from 0, 1, infinity",
        reference="21-argument symmetrized form with coefficients in {+-1, +-2}",
        # literal transcription of the published display; provably not a
        # functional equation (see check_gamma21_identity's report), so it is
        # excluded from the catalog soundness sweep
        is_equation=False,
    )


# ---------------------------------------------------------------------------
# Weight-4 family (numeric-only template over root placeholders)
# ---------------------------------------------------------------------------

def fourlog(n: int) -> EquationSpec:
    """Template in root placeholders x_1..x_n, y_1..y_n of x^(n-1)(x-1) = t, u.

    Numeric verification binds the placeholders to the computed preimages;
    the exact proof for each n is in proofalgebra.  Every argument is a
    quotient of products of the distinct irreducibles x_i, x_i - 1, y_j,
    y_j - 1, none on both sides, so each is reduced by construction and is
    marked as its own cancelled form.
    """
    if n < 2:
        raise DomainError("fourlog needs n >= 2")
    xs = [_v(f"x{i}") for i in range(1, n + 1)]
    ys = [_v(f"y{i}") for i in range(1, n + 1)]
    X = xs[0]
    for g in xs[1:]:
        X = X * g
    Y = ys[0]
    for g in ys[1:]:
        Y = Y * g
    # (v, 1 - 1/v, 1 - v), built once per placeholder v
    x_parts = [(xi, _reduced(1 - 1 / xi), 1 - xi) for xi in xs]
    y_parts = [(yj, _reduced(1 - 1 / yj), 1 - yj) for yj in ys]
    terms: List[Tuple[Fraction, RatFunc]] = [(Fraction(n * (n - 2)), _reduced(X / Y))]
    for xi, xi_inv, xi_one in x_parts:
        for yj, yj_inv, yj_one in y_parts:
            terms.append((Fraction(-((n - 1) ** 2)), _reduced(xi_inv / yj_inv)))
            terms.append((Fraction(n * n), _reduced(xi_one / yj_one)))
            terms.append((Fraction(-(n * n * (n - 1) ** 2)), _reduced(xi / yj)))
    for (_, xi_inv, _), (_, yj_inv, _) in zip(x_parts, y_parts):
        terms.append((Fraction(n * (n - 1) ** 2), xi_inv))
        terms.append((Fraction(-(n * (n - 1) ** 2)), yj_inv))
    return EquationSpec(
        name=f"fourlog_n{n}",
        weight=4,
        sum=FormalSum(terms),
        constraints="placeholders bound to the preimage sets of t and u",
        reference="two-variable 4-logarithm family",
        numeric_only=True,
    )


# ---------------------------------------------------------------------------
# Weight 7: power products of the irreducible factors
# ---------------------------------------------------------------------------

def _irreducibles(var: str) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    z = MultiPoly.var(var)
    one = MultiPoly.const(1, [var])
    return z, one - z, one - z + z * z


@lru_cache(maxsize=None)
def _one_variable_part(powers: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[int, int], ...]:
    """The product of the factor powers (idx, e) of one variable, as
    (exponent, int) pairs.

    Multiplied with ``MultiPoly`` in the order given, so the pairs come in
    the term order of the sequential product; the factors have integer
    coefficients, and so has their product.
    """
    irr = _irreducibles("z")
    part = MultiPoly.const(1, ["z"])
    for idx, e in powers:
        part = part * irr[idx] ** e
    _, (terms,) = cleared(part)
    return tuple((exp, c) for (exp,), c in terms.items())


def _outer_product(
    sign: int, parts: List[Tuple[str, Tuple[Tuple[int, int], ...]]]
) -> MultiPoly:
    """sign * the product of one-variable parts over distinct variables.

    No two products share an exponent vector, so the terms are the outer
    product of the parts, first part outermost.
    """
    vs = tuple(sorted(var for var, _ in parts))
    slots = [vs.index(var) for var, _ in parts]
    terms: IntPoly = {}
    for combo in product(*(pairs for _, pairs in parts)):
        exp = [0] * len(vs)
        c = sign
        for slot, (e, k) in zip(slots, combo):
            exp[slot] = e
            c *= k
        terms[tuple(exp)] = c
    return MultiPoly.from_ints(vs, terms.items())


#: (sign, ((variable, ((factor, exponent), ...)), ...)) -> power product
_power_products: Dict[Tuple, RatFunc] = {}


def _power_product(sign: int, factor_exps: Dict[str, Dict[int, int]]) -> RatFunc:
    """sign * prod over variables of t^e0 (1-t)^e1 (1-t+t^2)^e2.

    The factors are distinct irreducibles, so the result is reduced by
    construction and can be marked as its own cancelled form.

    Each distinct (sign, exponents) is built once per process and handed out
    as the same object.  A miss splits every variable's exponents into a
    numerator part (positive powers) and a denominator part, each a
    one-variable product cached as integer (exponent, coefficient) pairs,
    and takes num and den as outer products of the parts, first variable
    outermost.  That is the term order of multiplying the factor powers one
    at a time, variable by variable: the variables are disjoint, so no two
    products collide and the insertion order is the outer product of the
    factors' orders.  The order changes no verdict: the argument plan sums
    in integers, and only ``evaluate_in`` (the tests' reference) sums in
    it, in floating point.
    """
    key = (sign, tuple((var, tuple(exps.items())) for var, exps in factor_exps.items()))
    rf = _power_products.get(key)
    if rf is None:
        num_parts = []
        den_parts = []
        for var, exps in factor_exps.items():
            up = tuple((idx, e) for idx, e in exps.items() if e > 0)
            down = tuple((idx, -e) for idx, e in exps.items() if e < 0)
            if up:
                num_parts.append((var, _one_variable_part(up)))
            if down:
                den_parts.append((var, _one_variable_part(down)))
        rf = _reduced(RatFunc(_outer_product(sign, num_parts), _outer_product(1, den_parts)))
        _power_products[key] = rf
    return rf


# exponent vectors over (z, 1-z, 1-z+z^2), signs carried separately:
# f = -f1 f2 f3 = -z^2(1-z)^2/C^3, f1 = -z/C, f2 = -(1-z)/C, f3 = z(1-z)/C
_F_VEC = ((2, 2, -3), -1)
_FI_VEC = {1: ((1, 0, -1), -1), 2: ((0, 1, -1), -1), 3: ((1, 1, -1), 1)}


def _slot_exponents(a: int, b: int, i: int) -> Tuple[Dict[int, int], int]:
    """Exponents and sign of f^a f_i^(b-a) over the factor basis."""
    fvec, fsgn = _F_VEC
    vec, sgn = _FI_VEC[i]
    exps = {k: a * fvec[k] + (b - a) * vec[k] for k in range(3)}
    sign = (fsgn ** (a % 2)) * (sgn ** ((b - a) % 2))
    return {k: e for k, e in exps.items() if e}, (1 if sign >= 0 else -1)


def _block_argument(a: int, b: int, i: int, c: int, d: int, j: int) -> RatFunc:
    """f(t)^a f_i(t)^(b-a) / (f(u)^c f_j(u)^(d-c)) as a reduced power product."""
    t_exps, t_sign = _slot_exponents(a, b, i)
    u_exps, u_sign = _slot_exponents(c, d, j)
    return _power_product(
        t_sign * u_sign,
        {"t": t_exps, "u": {k: -e for k, e in u_exps.items()}},
    )


def _block_sum(a: int, b: int, c: int, d: int) -> List[Tuple[Fraction, RatFunc]]:
    """{a,b;c,d} = {a,b;c,d}_0(t,u) + {c,d;a,b}_0(t,u): 18 unit terms."""
    terms = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            terms.append((Fraction(1), _block_argument(a, b, i, c, d, j)))
            terms.append((Fraction(1), _block_argument(c, d, i, a, b, j)))
    return terms


#: (first factor with sign, second factor, (a, b, c, d)); the denominator of
#: the first factor is the argument multiplicity inside the block.
XI7_BLOCKS: Tuple[Tuple[Fraction, Fraction, Tuple[int, int, int, int]], ...] = (
    # weight-3 blocks
    (Fraction(-1, 18), Fraction(609, 4), (-1, -1, -1, -1)),
    (Fraction(-1, 3), Fraction(35), (-1, -1, -2, 1)),
    (Fraction(1, 3), Fraction(105, 8), (-1, -1, 3, -5)),
    (Fraction(-1, 3), Fraction(21), (-1, -1, -1, 4)),
    (Fraction(-1, 3), Fraction(15), (-1, -1, -2, 5)),
    (Fraction(1, 3), Fraction(15), (-1, -1, 3, -4)),
    # weight-2 blocks
    (Fraction(1, 2), Fraction(700), (1, 0, 1, 0)),
    (Fraction(1, 2), Fraction(175, 4), (1, -3, 1, -3)),
    (Fraction(1, 2), Fraction(28), (-2, 3, -2, 3)),
    (Fraction(-1), Fraction(35), (1, -3, -2, 3)),
    (Fraction(-1), Fraction(140), (-2, 3, 1, 0)),
    (Fraction(1), Fraction(175), (1, 0, 1, -3)),
    # weight-1 blocks
    (Fraction(1, 2), Fraction(700), (1, -2, -1, 2)),
    (Fraction(1), Fraction(3150), (0, 1, 1, -1)),
    (Fraction(1, 2), Fraction(1575), (-1, 1, 1, -1)),
    (Fraction(-1), Fraction(2100), (1, -2, 0, -1)),
    (Fraction(1, 2), Fraction(6300), (0, 1, 0, -1)),
    (Fraction(-1), Fraction(1050), (-1, 2, -1, 1)),
    (Fraction(-1, 2), Fraction(700), (-1, 2, -1, 2)),
    (Fraction(-1, 2), Fraction(1575), (-1, 1, -1, 1)),
    (Fraction(-1, 2), Fraction(6300), (0, 1, 0, 1)),
    (Fraction(1), Fraction(1050), (-1, 2, 1, -1)),
    (Fraction(1), Fraction(2100), (0, -1, -1, 2)),
    (Fraction(-1), Fraction(3150), (1, -1, 0, -1)),
)

_XI7_CONSTRAINT = "f_j(t), f_j(u) not in {0, infinity} for j = 1, 2, 3"


def xi7_explicit() -> EquationSpec:
    terms: List[Tuple[Fraction, RatFunc]] = []
    for first, second, (a, b, c, d) in XI7_BLOCKS:
        coeff = first * second
        terms.extend((coeff * k, arg) for k, arg in _block_sum(a, b, c, d))
    return EquationSpec(
        name="xi7_explicit",
        weight=7,
        sum=FormalSum(terms),
        constraints=_XI7_CONSTRAINT,
        reference="two-variable 7-logarithm equation, explicit block table",
    )


# -- symmetric form ----------------------------------------------------------

def theta(v: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """(a, b, c) -> (a, -b-c, b-a); sends the sum-zero plane into {(a,a,b)}."""
    a, b, c = v
    return (a, -b - c, b - a)


def s3_cosets(v: Tuple[int, int, int]) -> List[Tuple[int, int, int]]:
    """Distinct permutations of v (the S3/S2 coset images for (a,a,b))."""
    return sorted(set(permutations(v)))


def a_k_sets() -> Dict[str, object]:
    """The three exponent families A_1, A_2, A_3 and the special element delta."""
    out = {}
    for k in (1, 2, 3):
        base = (k, -1, 1 - k)
        out[f"A{k}"] = sorted({theta(p) for p in permutations(base)})
    out["delta"] = (-1, -1, -1)
    return out


def omega(alpha: Tuple[int, int, int]) -> Fraction:
    """1/(alpha_1 - alpha_3); undefined exactly at delta-type elements."""
    if alpha[0] == alpha[2]:
        raise DomainError(f"omega undefined for {alpha}: first equals third entry")
    return Fraction(1, alpha[0] - alpha[2])


def weight_wt(a: int, b: int) -> Fraction:
    return Fraction(abs(a) + abs(a + b) + abs(2 * a + b), 2)


def _phi_exponents(alpha: Tuple[int, int, int]) -> Tuple[Dict[int, int], int]:
    """(-f1)^a1 f2^a2 f3^a3 over the factor basis (z, 1-z, 1-z+z^2)."""
    a1, a2, a3 = alpha
    exps = {0: a1 + a3, 1: a2 + a3, 2: -(a1 + a2 + a3)}
    sign = -1 if a2 % 2 else 1  # f2 carries the only residual sign
    return {k: e for k, e in exps.items() if e}, sign


def phi_alpha(alpha: Tuple[int, int, int], var: str = "z") -> RatFunc:
    """The rational map z -> (-f1)^a1 f2^a2 f3^a3 as a reduced RatFunc."""
    exps, sign = _phi_exponents(alpha)
    return _power_product(sign, {var: exps})


def _triple_slot(gamma: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Identify a (x,x,y)-pattern triple with its block slot (a, b, i).

    The permutations of (a, a, b) realize the three f_i-components of the
    block slot (a, b): position of the unrepeated entry selects i.  The sign
    convention of the argument is the block one (the displayed exponent map
    fixes arguments only up to sign; the block convention is the one under
    which all three pinning checks hold).
    """
    g1, g2, g3 = gamma
    if g1 == g2:
        return (g1, g3, 3)
    if g1 == g3:
        return (g1, g2, 2)
    if g2 == g3:
        return (g2, g1, 1)
    raise DomainError(f"{gamma} is not a permutation of an (a, a, b) triple")


def _slot_ratio(alpha: Tuple[int, int, int], beta: Tuple[int, int, int]) -> RatFunc:
    """Block-convention argument for the exponent pair (alpha at t, beta at u)."""
    a, b, i = _triple_slot(alpha)
    c, d, j = _triple_slot(beta)
    return _block_argument(a, b, i, c, d, j)


#: global scale making canonical(60 * explicit) == canonical(symmetric);
#: see the development notes — the displayed symmetric sum is 1/6300 of
#: 60 times the displayed block table, uniformly across all 274 classes.
XI7_SYMMETRIC_SCALE = Fraction(6300)


def xi7_symmetric() -> EquationSpec:
    sets = a_k_sets()
    delta = sets["delta"]
    terms: List[Tuple[Fraction, RatFunc]] = []

    # weight-1 part: delta against A3
    terms.append((Fraction(-29, 20), _slot_ratio(delta, delta)))
    for alpha in sets["A3"]:
        if alpha == delta:
            continue
        w = omega(alpha)
        for sa in s3_cosets(alpha):
            terms.append((w, _slot_ratio(sa, delta)))
            terms.append((w, _slot_ratio(delta, sa)))

    # weight-2 part: A2 x A2
    for alpha in sets["A2"]:
        for beta in sets["A2"]:
            w = Fraction(20, 3) * omega(alpha) * omega(beta)
            for sa in s3_cosets(alpha):
                for tb in s3_cosets(beta):
                    terms.append((w, _slot_ratio(sa, tb)))

    # weight-3 part: A1 x A1
    for alpha in sets["A1"]:
        for beta in sets["A1"]:
            w = Fraction(-30) * omega(alpha) * omega(beta)
            for sa in s3_cosets(alpha):
                for tb in s3_cosets(beta):
                    terms.append((w, _slot_ratio(sa, tb)))

    scaled = [(c * XI7_SYMMETRIC_SCALE, arg) for c, arg in terms]
    return EquationSpec(
        name="xi7_symmetric",
        weight=7,
        sum=FormalSum(scaled),
        constraints=_XI7_CONSTRAINT,
        reference="7-logarithm equation, exponent-family symmetric form",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BUILDERS: Dict[str, Callable[[], EquationSpec]] = {
    "five_term": five_term,
    "three_term": three_term,
    "goncharov22": goncharov22,
    "goncharov22_sym": goncharov22_sym,
    "f17": f17,
    "relation34": relation34,
    "gamma21": gamma21,
    "gamma21_symmetrized": gamma21_symmetrized,
    "fourlog_n2": lambda: fourlog(2),
    "fourlog_n3": lambda: fourlog(3),
    "fourlog_n4": lambda: fourlog(4),
    "fourlog_n5": lambda: fourlog(5),
    "xi7_explicit": xi7_explicit,
    "xi7_symmetric": xi7_symmetric,
}

_cache: Dict[str, EquationSpec] = {}


def equation_names() -> List[str]:
    return sorted(_BUILDERS)


def get_equation(name: str) -> EquationSpec:
    if name not in _BUILDERS:
        raise DomainError(
            f"unknown equation {name!r}; known: {', '.join(equation_names())}"
        )
    if name not in _cache:
        _cache[name] = _BUILDERS[name]()
    return _cache[name]


def equation_from_json(data: dict) -> EquationSpec:
    """Rebuild an EquationSpec from its serialized form (exact roundtrip)."""
    from .expr import parse_expression

    terms = [
        (Fraction(entry["coeff"]), parse_expression(entry["arg"]))
        for entry in data["sum"]
    ]
    return EquationSpec(
        name=data["name"],
        weight=int(data["weight"]),
        sum=FormalSum(terms),
        constraints=data.get("constraints", ""),
        reference=data.get("reference", ""),
        is_equation=bool(data.get("is_equation", True)),
        numeric_only=bool(data.get("numeric_only", False)),
    )
