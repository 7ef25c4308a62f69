import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrel.poly import (
    MultiPoly,
    _max_exponent,
    cleared,
    int_value,
    pack,
    packed_product,
    power_table,
    unpack,
)
from polyrel.ratfunc import RatFunc, ZeroDenominator


def reference_mul(p: MultiPoly, q: MultiPoly):
    """The plain Fraction double loop the packed-integer multiply replaces."""
    p, q = MultiPoly.align(p, q)
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(exp, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
    return p.vars, out


coeffs = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)


@st.composite
def polys(draw):
    vs = sorted(draw(st.sets(st.sampled_from(["x", "y", "z"]), max_size=3)))
    exps = st.tuples(*[st.integers(0, 5) for _ in vs])
    pairs = draw(st.lists(st.tuples(exps, coeffs), max_size=6))
    return MultiPoly(vs, dict(pairs))


def assert_canonical(p: MultiPoly):
    """Every coefficient is a nonzero int, or a Fraction with denominator > 1."""
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def _poly_1d(coefficients):
    """Univariate polynomial in x with terms inserted in the given order."""
    return MultiPoly(["x"], {(e,): Fraction(c) for e, c in coefficients})


@given(polys(), polys())
@settings(max_examples=300, deadline=None)
# x^2 is inserted, cancelled to zero, then re-inserted at the end
@example(_poly_1d([(0, 1), (1, 1), (2, 1)]), _poly_1d([(0, 1), (1, -1), (2, 1)]))
@example(_poly_1d([(0, 1), (1, 1)]), _poly_1d([(0, 1), (1, -1), (2, 1)]))
@example(MultiPoly.zero(["x"]), MultiPoly.var("y"))
def test_mul_matches_reference_loop(p, q):
    vs, ref = reference_mul(p, q)
    got = p * q
    assert got.vars == vs
    assert got.terms == ref
    assert list(got.terms) == list(ref)
    assert_canonical(got)


@given(polys(), st.one_of(st.integers(-4, 4), coeffs))
@settings(max_examples=100, deadline=None)
def test_scalar_mul_matches_reference(p, c):
    ref = {e: k * Fraction(c) for e, k in p.terms.items() if k * c != 0}
    for got in (p * c, c * p):
        assert got.vars == p.vars
        assert got.terms == ref and list(got.terms) == list(ref)


def test_equal_polynomials_over_different_tables_hash_alike():
    x = MultiPoly.var("x")
    x_xy = MultiPoly.var("x", ["x", "y"])
    assert x == x_xy
    assert hash(x) == hash(x_xy)
    assert len({x, x_xy}) == 1
    assert len({MultiPoly.const(3), MultiPoly.const(3, ["x", "y"])}) == 1
    assert len({MultiPoly.zero(), MultiPoly.zero(["z"])}) == 1


# -- exact evaluation ---------------------------------------------------------


def reference_evaluate(p: MultiPoly, point) -> Fraction:
    """The plain Fraction loop the integer ratio evaluator replaces."""
    vals = [Fraction(point[v]) for v in p.vars]
    total = Fraction(0)
    for exp, c in p.terms.items():
        term = c
        for v, e in zip(vals, exp):
            if e:
                term *= v ** e
        total += term
    return total


# negative, zero and plain-int values next to proper fractions
point_values = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
)


@st.composite
def poly_and_point(draw):
    p = draw(polys())
    return p, {v: draw(point_values) for v in p.vars}


@given(poly_and_point())
@settings(max_examples=300, deadline=None)
@example((MultiPoly.zero(["x", "y"]), {"x": Fraction(2, 3), "y": 0}))
@example((MultiPoly.const(Fraction(-7, 4)), {}))
@example((MultiPoly.const(5, ["x"]), {"x": -3}))
# y has degree 0 in every term but is still in the table
@example((MultiPoly(["x", "y"], {(2, 0): Fraction(1, 2), (0, 0): Fraction(-3)}), {"x": Fraction(-1, 3), "y": 7}))
def test_evaluate_matches_reference_loop(case):
    p, point = case
    ref = reference_evaluate(p, point)
    got = p.evaluate(point)
    assert type(got) is Fraction and got == ref
    n, d = p.evaluate_ratio(point)
    assert type(n) is int and type(d) is int and d > 0
    assert Fraction(n, d) == ref


def test_evaluate_needs_every_variable():
    p = MultiPoly(["x", "y", "z"], {(3, 0, 1): Fraction(1), (1, 0, 2): Fraction(2)})
    assert p.evaluate({"x": 1, "y": 5, "z": 2}) == 10
    with pytest.raises(KeyError):
        p.evaluate({"x": 1, "z": 2})
    zero = MultiPoly(["x", "y"], {})
    assert zero.evaluate({"x": 3, "y": 0}) == 0
    with pytest.raises(KeyError):
        zero.evaluate({"x": 3})


# -- the integer form -----------------------------------------------------------


@given(st.lists(polys(), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
@example([MultiPoly.zero(["x"])])
def test_cleared_and_from_ints_round_trip(ps):
    d, ints = cleared(*ps)
    coefficients = [c for p in ps for c in p.terms.values()]
    # d is the least positive integer that clears every coefficient
    assert all((c * d).denominator == 1 for c in coefficients)
    assert not any(all((c * k).denominator == 1 for c in coefficients) for k in range(1, d))
    for p, ip in zip(ps, ints):
        assert list(ip) == list(p.terms)
        assert all(type(a) is int and Fraction(a, d) == c for a, c in zip(ip.values(), p.terms.values()))
        back = MultiPoly.from_ints(p.vars, ip.items(), d)
        assert back.terms == p.terms and list(back.terms) == list(p.terms)
        assert_canonical(back)


@given(polys())
@settings(max_examples=200, deadline=None)
def test_pack_unpack_round_trip(p):
    _, (ip,) = cleared(p)
    width = max((max(e, default=0) for e in ip), default=0).bit_length() + 1
    shifts = range(0, width * len(p.vars), width)
    packed = dict(pack(ip, shifts))
    assert len(packed) == len(ip)
    assert unpack(packed, shifts, width) == list(ip.items())


@given(poly_and_point())
@settings(max_examples=200, deadline=None)
def test_int_value_is_the_homogenized_value(case):
    p, point = case
    d, (ip,) = cleared(p)
    degrees = [max((e[i] for e in ip), default=0) for i in range(len(p.vars))]
    tables = [power_table(point[v], deg) for v, deg in zip(p.vars, degrees)]
    scale = Fraction(d)
    for v, deg in zip(p.vars, degrees):
        scale *= Fraction(point[v]).denominator ** deg
    assert Fraction(int_value(ip, tables)) / scale == reference_evaluate(p, point)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(5, 2), 4, -1])
@pytest.mark.parametrize("deg", [0, 1, 2, 5])
def test_power_table_entries(q, deg):
    a, b = Fraction(q).numerator, Fraction(q).denominator
    assert power_table(q, deg) == [a ** e * b ** (deg - e) for e in range(deg + 1)]


# -- the coefficient form: int when integral, else a proper Fraction -------------


@given(
    polys(),
    polys(),
    st.one_of(st.integers(-4, 4), coeffs),
    st.lists(coeffs, min_size=6, max_size=6),
)
@settings(max_examples=100, deadline=None)
# halves that sum, and scale, to integers
@example(
    MultiPoly(["x"], {(1,): Fraction(1, 2)}),
    MultiPoly(["x"], {(1,): Fraction(1, 2), (0,): 2}),
    Fraction(2),
    [Fraction(1, 2)] * 6,
)
def test_coefficients_are_ints_or_proper_fractions(p, q, c, ab):
    results = [p + q, p - q, -p, p * q, p * c, c * p]
    results += [p.derivative(v) for v in p.vars]
    d, (ip,) = cleared(p)
    results += [MultiPoly.from_ints(p.vars, ip.items(), den) for den in (1, d, 6)]
    if not q.is_zero():
        f = RatFunc(p, q)
        results += [f.num, f.den, f.cancelled().num, f.cancelled().den]
        # x -> a0*y + b0, y -> a1*z + b1, z -> a2*x + b2
        binding = {v: RatFunc.var(w) * a + b for v, w, a, b in zip("xyz", "yzx", ab, ab[3:])}
        try:
            g = f.substitute(binding)
            results += [g.num, g.den, g.cancelled().num, g.cancelled().den]
        except ZeroDenominator:  # the images send den to zero
            pass
    for r in results:
        assert_canonical(r)


def test_constant_values_stay_fractions():
    for p in (MultiPoly.zero(), MultiPoly.const(3), MultiPoly.const(Fraction(6, 2), ["x"])):
        assert type(p.constant_value()) is Fraction
    assert MultiPoly.const(Fraction(6, 2)).terms == {(): 3}
    assert type(MultiPoly.const(Fraction(6, 2)).terms[()]) is int
    f = RatFunc(MultiPoly.const(6, ["x"]), MultiPoly.const(3, ["x"]))
    assert type(f.constant_value()) is Fraction and f.constant_value() == 2
    assert type(f.cancelled().constant_value()) is Fraction
    assert type(RatFunc.from_value(4).constant_value()) is Fraction
    assert type(MultiPoly.var("x").evaluate({"x": 2})) is Fraction


def test_constructor_rejects_negative_exponents():
    # packed, x^-1 borrows from the field above it: it serialized as 1 and
    # its square as x^6
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(["x"], {(-1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(["x", "y"], {(2, 0): 1, (1, -2): 3})


def test_constructor_rejects_repeated_variable_names():
    with pytest.raises(ValueError, match="repeated variable"):
        MultiPoly(["x", "x"], {(1, 0): 1})
    with pytest.raises(ValueError, match="repeated variable"):
        MultiPoly.var("x").embed(["x", "x", "y"])
    with pytest.raises(ValueError, match="drop variables"):
        MultiPoly.var("x").embed(["y"])


def general_route(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p * q by the route every product took before the constant-factor and
    mixed-table paths: both operands embedded in the union table, then one
    packed product over it."""
    vs = sorted(set(p.vars) | set(q.vars))
    p, q = p.embed(vs), q.embed(vs)
    if not p.terms or not q.terms:
        return MultiPoly(vs, {})
    width = (_max_exponent(p) + _max_exponent(q)).bit_length() + 1
    shifts = range(0, width * len(vs), width)
    den, (ip, iq) = cleared(p, q)
    out = packed_product(pack(ip, shifts), pack(iq, shifts))
    return MultiPoly.from_ints(p.vars, unpack(out, shifts, width), den * den)


def assert_same_product(got: MultiPoly, ref: MultiPoly):
    """Equal term for term, in insertion order, with the same coefficient types."""
    assert got.vars == ref.vars
    assert list(got.terms.items()) == list(ref.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in ref.terms.values()]


NAMES = ("a", "t", "u", "x", "y", "z")


def random_coeff(rng: random.Random):
    c = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
    return c if c else Fraction(1)


def random_poly(rng: random.Random, vs, terms: int) -> MultiPoly:
    vs = sorted(vs)
    return MultiPoly(
        vs, {tuple(rng.randint(0, 4) for _ in vs): random_coeff(rng) for _ in range(terms)}
    )


@pytest.mark.parametrize("seed", range(12))
def test_constant_and_single_term_products_match_the_general_route(seed):
    rng = random.Random(seed)
    for _ in range(40):
        table = rng.sample(NAMES, rng.randint(1, 4))
        p = random_poly(rng, table, rng.randint(0, 6))
        rest = [v for v in NAMES if v not in table]
        tables = {
            "empty": [],
            "same": table,
            "smaller": rng.sample(table, rng.randint(0, len(table) - 1)),
            "larger": table + rng.sample(rest, rng.randint(1, len(rest))),
        }
        for vs in tables.values():
            c = rng.choice([1, -1, 2, random_coeff(rng)])
            factors = [MultiPoly.const(c, vs), random_poly(rng, vs, 1)]
            for q in factors:
                assert_same_product(p * q, general_route(p, q))
                assert_same_product(q * p, general_route(q, p))


@pytest.mark.parametrize("seed", range(12))
def test_mixed_table_products_match_the_general_route(seed):
    rng = random.Random(seed)
    for _ in range(40):
        p = random_poly(rng, rng.sample(NAMES, rng.randint(0, 4)), rng.randint(0, 6))
        q = random_poly(rng, rng.sample(NAMES, rng.randint(0, 4)), rng.randint(0, 6))
        assert_same_product(p * q, general_route(p, q))
        assert_same_product(q * p, general_route(q, p))
