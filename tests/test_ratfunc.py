from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrel.exact import DomainError
from polyrel.poly import MultiPoly, cleared
from polyrel.ratfunc import (
    INDETERMINATE,
    INFINITY,
    POLE,
    RatFunc,
    ZeroDenominator,
    cross_ratio,
)

x = RatFunc.var("x")
y = RatFunc.var("y")
z = RatFunc.var("z")
one = RatFunc.from_value(1)


def f1(v):
    return -v / (1 - v + v * v)


def f2(v):
    return (v - 1) / (1 - v + v * v)


def f3(v):
    return v * (1 - v) / (1 - v + v * v)


def big_f(v):
    return (v * v * (1 - v) ** 2) / (1 - v + v * v) ** 3


def test_inverse_pair_product():
    assert ((x / y) * (y / x)).equivalent(one)


def test_inv_swaps_with_sign_normalization():
    g = f2(z)
    inv = g.inv()
    assert inv.equivalent((1 - z + z * z) / (z - 1))
    assert (g * inv).equivalent(one)


def test_f1_f2_f3_product_is_f():
    # product of the three weight-7 building blocks equals the invariant f
    prod = f1(z) * f2(z) * f3(z)
    assert prod.equivalent(big_f(z))


def test_substitute_inverse_variable():
    g = x * x
    assert g.substitute({"x": one / x}).equivalent(one / (x * x))


def test_substitute_one_minus_z_fixes_f():
    assert big_f(z).substitute({"z": one - z}).equivalent(big_f(z))


def test_substitute_inv_z_fixes_f():
    assert big_f(z).substitute({"z": one / z}).equivalent(big_f(z))


def test_phi_delta_is_inverse_of_f():
    # (-f1)^-1 f2^-1 f3^-1 = 1/(f1 f2 f3 * -1)... the minus sits on f1 only
    phi_delta = (-f1(z)).pow_int(-1) * f2(z).pow_int(-1) * f3(z).pow_int(-1)
    assert phi_delta.equivalent(-one / big_f(z))


def test_eval_exact():
    g = f3(z)
    assert g.evaluate({"z": Fraction(2)}) == Fraction(-2, 3)


def test_eval_pole():
    g = one / (z - 1)
    assert g.evaluate({"z": 1}) is POLE


def test_eval_indeterminate():
    g = (z * z - 1) / (z - 1)
    assert g.evaluate({"z": 1}) is INDETERMINATE


def test_equivalent_cross_multiplication():
    assert (x / y).equivalent(x / y)
    assert not (x / y).equivalent(y / x)


def test_equivalent_from_spec_example():
    a = RatFunc.var("a")
    c = RatFunc.var("c")
    t = RatFunc.var("t")
    lhs = (1 - c * t) * a / (a - t)
    rhs = a * (c * t - 1) / (t - a)
    assert lhs.equivalent(rhs)


def test_pow_limit_guard():
    with pytest.raises(DomainError):
        x.pow_int(100)


def test_division_by_zero_function():
    with pytest.raises(ZeroDenominator):
        x / (y - y)


def test_depends_on_sees_through_common_factors():
    t = RatFunc.var("t")
    g = (x * t) / t  # equals x, but stored unreduced
    assert not g.depends_on("t")
    assert g.depends_on("x")
    assert (x * t).depends_on("t")


def test_cancelled_reduces():
    t = RatFunc.var("t")
    g = (x * t + t) / (t * t)
    red = g.cancelled()
    assert red.equivalent(g)
    assert red.num.degree_in("t") == 0
    assert red.den.degree_in("t") == 1


def test_cross_ratio_limit_convention():
    u = RatFunc.var("u")
    assert cross_ratio(0, INFINITY, 1, u).equivalent(one / u)


def test_cross_ratio_spec_term():
    a, c, t = RatFunc.var("a"), RatFunc.var("c"), RatFunc.var("t")
    got = cross_ratio(t, 0, one / c, a)
    assert got.equivalent(a * (c * t - 1) / (t - a))


def test_cross_ratio_phi_from_four_points():
    a, b, c = RatFunc.var("a"), RatFunc.var("b"), RatFunc.var("c")
    xx = RatFunc.var("x")
    phi = cross_ratio(xx, xx * b * c, b, a * b * c)
    expected = (xx - a) * (xx - b) / ((xx - one / c) * (xx - a * b * c))
    assert phi.equivalent(expected)


def test_cross_ratio_degenerate_pairs():
    assert cross_ratio(x, y, x, z).equivalent(RatFunc.from_value(0))
    assert cross_ratio(x, y, z, x) is INFINITY
    assert cross_ratio(x, x, y, z).equivalent(one)


def test_cross_ratio_all_equal_rejected():
    with pytest.raises(DomainError):
        cross_ratio(x, x, x, x)


def test_cross_ratio_mobius_invariance_samples():
    # cr is invariant under z -> (2z+3)/(z+5) applied to all four points
    def moebius(p):
        return (2 * p + 3) / (p + 5)

    pts = [x, y, z, one + x * y]
    base = cross_ratio(*pts)
    moved = cross_ratio(*[moebius(p) for p in pts])
    assert base.equivalent(moved)


small_fracs = st.fractions(
    min_value=Fraction(-12), max_value=Fraction(12), max_denominator=7
)


@given(small_fracs, small_fracs)
@settings(max_examples=60, deadline=None)
def test_eval_commutes_with_substitute(aval, bval):
    g = (x * x - y) / (x * y + 1)
    sub = {"x": y + 1, "y": x * y}
    composed = g.substitute(sub)
    point = {"x": aval, "y": bval}
    inner = {k: v.evaluate(point) for k, v in sub.items()}
    if any(v in (POLE, INDETERMINATE) for v in inner.values()):
        return
    direct = composed.evaluate(point)
    via = g.evaluate(inner)
    if direct in (POLE, INDETERMINATE) or via in (POLE, INDETERMINATE):
        return
    assert direct == via


@given(small_fracs)
@settings(max_examples=40, deadline=None)
def test_equivalence_is_equivalence_relation(v):
    g = (x + v) / (y + 1)
    h = RatFunc(g.num * MultiPoly.const(3), g.den * MultiPoly.const(3))
    k = RatFunc(g.num * g.den, g.den * g.den)
    assert g.equivalent(g)
    assert g.equivalent(h) and h.equivalent(g)
    assert h.equivalent(k) and g.equivalent(k)


def test_equal_functions_over_different_tables_hash_alike():
    x_xy = RatFunc(MultiPoly.var("x", ["x", "y"]), MultiPoly.const(1, ["x", "y"]))
    assert x_xy == x
    assert hash(x_xy) == hash(x)
    assert len({x, x_xy}) == 1


@pytest.mark.parametrize("g", [f1(z), big_f(z), (x - y * y) / (2 * x * y + 3)])
def test_inverse_and_powers_of_reduced_form_stay_reduced(g):
    red = g.cancelled()
    for n in (-3, -1, 0, 1, 2, 3):
        out = red.pow_int(n)
        assert out._cancelled is out
        # a fresh copy goes through the sympy gcd
        assert out.serialize() == RatFunc(out.num, out.den).cancelled().serialize()
        assert out.equivalent(g.pow_int(n))
    assert g.inv()._cancelled is None  # unreduced input: no claim


# -- exact evaluation against the plain Fraction loop -------------------------


def _reference_poly_value(p: MultiPoly, pt) -> Fraction:
    total = Fraction(0)
    for exp, c in p.terms.items():
        term = c
        for v, e in zip(p.vars, exp):
            term *= pt[v] ** e
        total += term
    return total


def reference_evaluate(f: RatFunc, point):
    """The Fraction evaluation the integer ratio evaluator replaces."""
    pt = {v: Fraction(point[v]) for v in f.vars}
    den = _reference_poly_value(f.den, pt)
    num = _reference_poly_value(f.num, pt)
    if den == 0:
        return INDETERMINATE if num == 0 else POLE
    return num / den


eval_values = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))
eval_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def ratfunc_and_point(draw):
    vs = sorted(draw(st.sets(st.sampled_from(["x", "y"]), max_size=2)))
    exps = st.tuples(*[st.integers(0, 3) for _ in vs])
    num = MultiPoly(vs, dict(draw(st.lists(st.tuples(exps, eval_coeffs), max_size=4))))
    den = MultiPoly(vs, dict(draw(st.lists(st.tuples(exps, eval_coeffs), min_size=1, max_size=4))))
    if den.is_zero():
        den = MultiPoly.const(draw(st.integers(1, 3)), vs)
    point = {v: draw(eval_values) for v in vs}
    if vs and draw(st.booleans()):
        # a common factor (v - r) vanishing at the point: 0/0 or a pole
        v = vs[0]
        factor = MultiPoly.var(v, vs) - MultiPoly.const(point[v], vs)
        den = den * factor
        if draw(st.booleans()):
            num = num * factor
    return RatFunc(num, den), point


@given(ratfunc_and_point())
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_reference_loop(case):
    f, point = case
    ref = reference_evaluate(f, point)
    got = f.evaluate(point)
    if ref is POLE or ref is INDETERMINATE:
        assert got is ref
    else:
        assert type(got) is Fraction and got == ref


@given(ratfunc_and_point())
@settings(max_examples=100, deadline=None)
def test_cleared_is_num_and_den_over_one_denominator(case):
    f, _ = case
    num, den = f.cleared()
    assert list(num) == list(f.num.terms) and list(den) == list(f.den.terms)
    assert all(type(a) is int for a in (*num.values(), *den.values()))
    ratios = {Fraction(a) / c for p, q in ((num, f.num), (den, f.den)) for a, c in zip(p.values(), q.terms.values())}
    assert len(ratios) == 1 and next(iter(ratios)) > 0


def test_evaluate_edge_cases():
    assert RatFunc.from_value(0).evaluate({}) == 0
    assert RatFunc.from_value(Fraction(-5, 6)).evaluate({}) == Fraction(-5, 6)
    # y is in the table with degree 0 everywhere
    g = RatFunc(MultiPoly.var("x", ["x", "y"]) * Fraction(1, 2), MultiPoly.const(3, ["x", "y"]) - MultiPoly.var("x", ["x", "y"]))
    assert g.evaluate({"x": -1, "y": 0}) == Fraction(-1, 8)
    assert g.evaluate({"x": 3, "y": Fraction(2, 7)}) is POLE
    assert ((x * x - 1) / (x - 1)).evaluate({"x": 1}) is INDETERMINATE
    assert ((x * x - 1) / (x - 1)).evaluate({"x": 0}) == 1
    assert (1 / x).evaluate({"x": 0}) is POLE


# -- substitution and cancellation against their plain references ---------------


def reference_substitute(f: RatFunc, binding) -> RatFunc:
    """The per-product loop the one-table substitute replaces: every product
    and sum aligns its operands' variable tables."""
    images = {v: RatFunc.coerce(binding[v]) for v in f.vars}
    maxexp = {v: max(f.num.degree_in(v), f.den.degree_in(v)) for v in f.vars}
    num_pows, den_pows = {}, {}
    for v in f.vars:
        n_p = [MultiPoly.const(1)]
        d_p = [MultiPoly.const(1)]
        for _ in range(maxexp[v]):
            n_p.append(n_p[-1] * images[v].num)
            d_p.append(d_p[-1] * images[v].den)
        num_pows[v] = n_p
        den_pows[v] = d_p

    def expand(p: MultiPoly) -> MultiPoly:
        total = MultiPoly.zero()
        for exp, c in p.terms.items():
            term = MultiPoly.const(c)
            for v, e in zip(p.vars, exp):
                term = term * num_pows[v][e]
                co = maxexp[v] - e
                if co:
                    term = term * den_pows[v][co]
            total = total + term
        return total

    return RatFunc(expand(f.num), expand(f.den))


def reference_sympy_cancel(f: RatFunc) -> RatFunc:
    """The gcd over QQ, converting every coefficient through sympy.Rational."""
    import sympy

    syms = sympy.symbols(f.vars)
    if not isinstance(syms, tuple):
        syms = (syms,)

    def to_sympy(p: MultiPoly):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
            *syms,
            domain="QQ",
        )

    def from_sympy(sp) -> MultiPoly:
        terms = {}
        for exp, c in sp.as_dict().items():
            q = sympy.Rational(c)
            terms[tuple(int(e) for e in exp)] = Fraction(int(q.p), int(q.q))
        return MultiPoly(sorted(f.vars), terms)

    pn, pd = to_sympy(f.num), to_sympy(f.den)
    g = pn.gcd(pd)
    if not g.is_one:
        pn, pd = pn.exquo(g), pd.exquo(g)
    return RatFunc(from_sympy(pn), from_sympy(pd))


def assert_same_representation(got: RatFunc, ref: RatFunc):
    assert got.vars == ref.vars
    for a, b in ((got.num, ref.num), (got.den, ref.den)):
        assert a.vars == b.vars
        assert a.terms == b.terms
        assert list(a.terms) == list(b.terms)


sub_names = ["a", "b", "x", "y"]
small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def small_ratfunc(draw, names):
    vs = sorted(draw(st.sets(st.sampled_from(names), max_size=3)))
    exps = st.tuples(*[st.integers(0, 2) for _ in vs])
    num = MultiPoly(vs, dict(draw(st.lists(st.tuples(exps, small_coeffs), max_size=3))))
    den = MultiPoly(vs, dict(draw(st.lists(st.tuples(exps, small_coeffs), min_size=1, max_size=3))))
    if den.is_zero():
        den = MultiPoly.const(draw(st.integers(1, 3)), vs)
    return RatFunc(num, den)


@st.composite
def substitution_case(draw):
    f = draw(small_ratfunc(["x", "y"]))
    binding = {}
    for v in f.vars:
        if draw(st.booleans()):
            binding[v] = draw(small_coeffs)
        else:
            binding[v] = draw(small_ratfunc(sub_names))
    return f, binding


@given(substitution_case())
@settings(max_examples=300, deadline=None)
def test_substitute_matches_reference_loop(case):
    f, binding = case
    try:
        ref = reference_substitute(f, binding)
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            f.substitute(binding)
        return
    assert_same_representation(f.substitute(binding), ref)


def test_substitute_matches_reference_on_symmetry_maps():
    from polyrel.checks import ab_parametrization, group_generators

    A, B = ab_parametrization()
    binding = {f"y{i}": A[i] for i in (1, 2, 3)}
    binding.update({f"z{i}": B[i] for i in (1, 2, 3)})
    y1, y2, z3 = (RatFunc.var(v) for v in ("y1", "y2", "z3"))
    for f in (y1, y1 * y2 / (1 - z3), (1 - y1 * z3) / (y2 + 2)):
        sub = {v: binding[v] for v in f.vars}
        assert_same_representation(f.substitute(sub), reference_substitute(f, sub))
    for name in ("alpha", "t"):
        gens = group_generators()[name]
        for g in gens:
            for h in gens:
                for v in g.variables:
                    f = h.images[v]
                    sub = {w: g.images[w] for w in f.vars}
                    assert_same_representation(f.substitute(sub), reference_substitute(f, sub))


wide_coeffs = st.one_of(
    small_coeffs,
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=3),
)


@st.composite
def gcd_case(draw):
    """(p·c)/(q·c) over up to 4 variables, degree <= 4 in each, with
    coefficients up to ±10^6: p, q and the common factor c have degree <= 2."""
    vs = sorted(draw(st.sets(st.sampled_from(sub_names), max_size=4)))
    exps = st.tuples(*[st.integers(0, 2) for _ in vs])

    def poly(min_size):
        return MultiPoly(vs, dict(draw(st.lists(st.tuples(exps, wide_coeffs), min_size=min_size, max_size=3))))

    p, q, c = poly(0), poly(1), poly(1)
    if q.is_zero():
        q = MultiPoly.const(draw(st.integers(1, 3)), vs)
    if c.is_zero():
        c = MultiPoly.const(1, vs)
    return RatFunc(p * c, q * c)


def _nontrivial(f: RatFunc) -> bool:
    return not (f.is_zero() or (f.num.is_constant() and f.den.is_constant()))


@given(st.lists(small_ratfunc(sub_names), min_size=2, max_size=3))
@settings(max_examples=200, deadline=None)
def test_sympy_cancel_matches_rational_path(fs):
    from polyrel.ratfunc import _sympy_cancel

    common = fs[-1]
    if common.is_zero():
        common = common + 1
    f = RatFunc(fs[0].num * common.num, fs[0].den * common.num)
    for g in fs[1:-1]:
        f = f * g
    if not _nontrivial(f):
        return
    got, ref = _sympy_cancel(f), reference_sympy_cancel(f)
    assert got.serialize() == ref.serialize()
    assert_same_representation(got, ref)


@given(gcd_case())
@settings(max_examples=200, deadline=None)
def test_sympy_cancel_matches_reference_on_wide_inputs(f):
    # coefficients this wide make the first ξ miss on about a quarter of the
    # inputs, so the retries run
    from polyrel.ratfunc import _sympy_cancel

    if not _nontrivial(f):
        return
    assert_same_representation(_sympy_cancel(f), reference_sympy_cancel(f))


t1, t2, t3 = (RatFunc.var(f"t{i}") for i in (1, 2, 3))

# inputs simpler schemes get wrong: t3(1-t1) and t3-1 are coprime, but their
# one-point Kronecker images are not; (1-t1t2t3)^2 against t2^2t3^2(1-t1)^2
# fails when the last variable is evaluated and only the gcd route is tried;
# 2x^2y^3 against 4x^3y - 6x^2y^2 needs a second ξ
gcd_inputs = [
    t3 * (1 - t1) / (t3 - 1),
    (1 - t1 * t2 * t3) ** 2 / (t2 * t2 * t3 * t3 * (1 - t1) ** 2),
    (t1 * t2 - 1) * (t1 + t3) / ((t1 * t2 - 1) * (t2 - t3) ** 2),
    (x * x * y - 7 * y + 3) * (x + y) / ((x * x * y - 7 * y + 3) * (x - y)),
    2 * x**2 * y**3 / (4 * x**3 * y - 6 * x**2 * y**2),
]


def _ints(p: MultiPoly) -> dict:
    return {e: int(c) for e, c in p.terms.items()}


def _evaluation_points(monkeypatch) -> dict:
    """The ξ values ``_heu_gcd`` evaluates at, in order, by the number of
    variables of the polynomials evaluated (the top level has the most),
    through a wrapper on ``ratfunc._eval_first``."""
    from polyrel import ratfunc

    points = {}
    evaluate = ratfunc._eval_first

    def counted(p, xi):
        level = points.setdefault(len(next(iter(p))), [])
        if xi not in level:
            level.append(xi)
        return evaluate(p, xi)

    monkeypatch.setattr(ratfunc, "_eval_first", counted)
    return points


@pytest.mark.parametrize("f", gcd_inputs)
def test_heuristic_gcd_matches_reference_without_fallback(f):
    from polyrel import ratfunc

    assert_same_representation(ratfunc._sympy_cancel(f), reference_sympy_cancel(f))


def test_second_evaluation_point_is_tried(monkeypatch):
    from polyrel import ratfunc

    num, den = {(2, 3): 2}, {(3, 1): 4, (2, 2): -6}  # over (x, y)
    points = _evaluation_points(monkeypatch)
    assert ratfunc._heu_gcd(num, den) == ({(2, 1): 2}, {(0, 2): 1}, {(1, 0): 2, (0, 1): -3})
    # one point for x; the gcd of the images over y, whose primitive parts
    # are y^3 and 62y - 3y^2, needs a second
    assert points == {2: [31], 1: [31, 169]}


_cyc = 1 + x + x * x


@pytest.mark.parametrize(
    "f, common",
    [
        (_cyc**6 / (_cyc**5 * (x - 1) ** 7), _cyc**5),  # accepted by f's cofactor
        (_cyc**8 / (_cyc**4 * (x - 1) ** 3), _cyc**4),  # accepted by g's cofactor
    ],
    ids=["cff", "cfg"],
)
def test_cofactor_routes_accept_at_the_first_point(f, common, monkeypatch):
    # the gcd's coefficients are too wide for the first ξ's balanced digits,
    # the cofactor's are not: one evaluation point must do
    from polyrel import ratfunc

    points = _evaluation_points(monkeypatch)
    h, cff, cfg = ratfunc._heu_gcd(_ints(f.num), _ints(f.den))
    assert len(points[1]) == 1
    assert h == _ints(common.num)
    assert_same_representation(ratfunc._sympy_cancel(f), reference_sympy_cancel(f))


@pytest.mark.parametrize("f", gcd_inputs)
def test_heuristic_gcd_runs_past_rejected_candidates(f, monkeypatch):
    # the first 21 top-level candidates (seven points' worth, every route)
    # get a term of degree 1000 in the interpolated variable, above both
    # inputs' degrees, so exact division rejects each of them and the loop
    # runs past the six points sympy's heuristic would give up after
    from polyrel import ratfunc

    num, den = f.cleared()
    arity = len(next(iter(num)))
    corrupted = []
    interpolate = ratfunc._interpolate

    def corrupt(h, xi):
        out = interpolate(h, xi)
        if len(next(iter(out))) == arity and len(corrupted) < 21:
            corrupted.append(xi)
            out = {**out, (1000,) + (0,) * (arity - 1): 1}
        return out

    points = _evaluation_points(monkeypatch)
    monkeypatch.setattr(ratfunc, "_interpolate", corrupt)
    assert_same_representation(ratfunc._sympy_cancel(f), reference_sympy_cancel(f))
    assert len(corrupted) == 21 and len(points[arity]) >= 8


def test_symmetry_criteria_never_reach_the_fallback(monkeypatch):
    from test_formal import reference_closure

    from polyrel import catalog, checks, ratfunc, report

    cancels = []
    cancel = ratfunc._sympy_cancel

    def counted(f):
        cancels.append(f)
        return cancel(f)

    # start from empty process caches so every cancel of the two criteria runs
    monkeypatch.setattr(catalog, "_cache", {})
    monkeypatch.setattr(ratfunc, "_sympy_cancel", counted)
    checks.gprime_orbits.cache_clear()
    try:
        assert report.criterion_3_symmetric_equivalences(0)["passed"]
        assert report.criterion_4_q_equations(0)["passed"]
        # the closure no longer composes; composing keeps those cancels covered
        for name in ("alpha", "t"):
            assert len(reference_closure(checks.group_generators()[name])) == 192
    finally:
        checks.gprime_orbits.cache_clear()
    assert len(cancels) > 400


def test_symmetry_criteria_do_not_import_sympy():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None  # any import of sympy raises ImportError\n"
        "from polyrel import report\n"
        "from polyrel.expr import parse_expression\n"
        "assert report.criterion_3_symmetric_equivalences(0)['passed']\n"
        "assert report.criterion_4_q_equations(0)['passed']\n"
        "for line in sys.stdin.read().splitlines():\n"
        "    print(parse_expression(line).cancelled().serialize())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        input="".join(f.serialize() + "\n" for f in gcd_inputs),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [reference_sympy_cancel(f).serialize() for f in gcd_inputs]


def _forced_normalization(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """RatFunc(num, den) through the constructor's content division: doubling
    both sides keeps the function but puts 2 in den's content, so the
    constructor's skip for a den of 1 does not apply."""
    return RatFunc(num * 2, den * 2)


def cross_product(a: RatFunc, b: RatFunc, op: str) -> RatFunc:
    """a op b from the cross products, every product by the general route."""
    from test_poly import general_route

    if op == "+":
        num = general_route(a.num, b.den) + general_route(b.num, a.den)
        return _forced_normalization(num, general_route(a.den, b.den))
    if op == "-":
        num = general_route(a.num, b.den) + general_route(-b.num, a.den)
        return _forced_normalization(num, general_route(a.den, b.den))
    return _forced_normalization(general_route(a.num, b.den), general_route(a.den, b.num))


@pytest.mark.parametrize("seed", range(8))
def test_unit_denominator_arithmetic_matches_the_cross_products(seed):
    import operator
    import random

    from test_poly import NAMES, assert_same_product, random_poly

    ops = {"+": operator.add, "-": operator.sub, "/": operator.truediv}
    rng = random.Random(seed)
    for _ in range(30):
        a, b = (
            RatFunc(random_poly(rng, vs, rng.randint(0, 5)), MultiPoly.const(1, vs))
            for vs in (rng.sample(NAMES, rng.randint(0, 3)) for _ in range(2))
        )
        assert a.den.terms == {(0,) * len(a.vars): 1}
        for op, fn in ops.items():
            for lhs, rhs in ((a, b), (b, a), (a, rng.randint(-3, 3)), (rng.randint(-3, 3), a)):
                rf_lhs, rf_rhs = RatFunc.coerce(lhs), RatFunc.coerce(rhs)
                if op == "/" and rf_rhs.is_zero():
                    continue
                if op == "+" and isinstance(lhs, int):  # int + f runs f.__radd__
                    rf_lhs, rf_rhs = rf_rhs, rf_lhs
                got, ref = fn(lhs, rhs), cross_product(rf_lhs, rf_rhs, op)
                assert_same_product(got.num, ref.num)
                assert_same_product(got.den, ref.den)
                assert got.serialize() == ref.serialize()


@pytest.mark.parametrize("seed", range(4))
def test_numerator_over_one_is_normalized_as_it_stands(seed):
    import random

    from test_poly import NAMES, assert_same_product, random_poly

    rng = random.Random(seed)
    for _ in range(30):
        vs = rng.sample(NAMES, rng.randint(0, 3))
        num = random_poly(rng, vs, rng.randint(1, 5))
        if rng.random() < 0.5:
            num = num * cleared(num)[0]  # integral
        one = MultiPoly.const(1, vs)
        got, ref = RatFunc(num, one), _forced_normalization(num, one)
        assert_same_product(got.num, ref.num)
        assert_same_product(got.den, ref.den)

