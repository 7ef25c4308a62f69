from fractions import Fraction

import pytest

from polyrel import catalog, ratfunc
from polyrel.catalog import (
    XI7_BLOCKS,
    a_k_sets,
    equation_from_json,
    equation_names,
    get_equation,
    omega,
    phi_alpha,
    s3_cosets,
    theta,
    weight_wt,
)
from polyrel.criterion import kernel_test
from polyrel.exact import DomainError
from polyrel.formal import inversion_class_key
from polyrel.poly import MultiPoly
from polyrel.ratfunc import RatFunc


# -- builder shape -------------------------------------------------------------

def test_five_term_has_five_arguments():
    eq = get_equation("five_term")
    assert len(eq.sum) == 5
    assert eq.sum.count_distinct_up_to_inversion() == 5


def test_three_term_structure():
    eq = get_equation("three_term")
    assert eq.sum.count_distinct_up_to_inversion() == 3
    assert eq.sum.coefficient_of(RatFunc.from_value(1)) == -1


def test_goncharov22_counts():
    eq = get_equation("goncharov22")
    assert eq.sum.count_distinct_up_to_inversion() == 22
    assert eq.sum.coefficient_of(RatFunc.from_value(1)) == -3


def test_goncharov22_sym_counts():
    eq = get_equation("goncharov22_sym")
    assert eq.sum.count_distinct_up_to_inversion() == 22
    # 28 exact non-constant arguments before inversion-class merging
    assert len(eq.sum.nonconstant_part()) == 28


def test_f17_and_relation34_counts():
    assert len(get_equation("f17").sum) == 17
    assert get_equation("f17").sum.count_distinct_up_to_inversion() == 17
    assert not get_equation("f17").is_equation
    r34 = get_equation("relation34")
    assert len(r34.sum) == 34
    assert r34.sum.count_distinct_up_to_inversion() == 34


def test_gamma21_symmetrized_classes_and_coefficients():
    eq = get_equation("gamma21_symmetrized")
    assert eq.sum.count_distinct_up_to_inversion() == 21
    assert all(c in (1, -1, 2, -2) for c, _ in eq.sum)


def test_fourlog_term_structure():
    eq = get_equation("fourlog_n2")
    assert eq.numeric_only
    # n(n-2) = 0 kills the product term for n = 2: 3n^2 + 2n = 16 terms
    assert len(eq.sum) == 16
    eq3 = get_equation("fourlog_n3")
    assert len(eq3.sum) == 3 * 9 + 1 + 6


@pytest.mark.parametrize("n", range(2, 7))
def test_fourlog_arguments_are_marked_with_their_cancelled_form(n):
    # the marked arguments skip the gcd, so each must already be the form
    # the heuristic gcd returns, to the byte
    terms = catalog.fourlog(n).sum.terms
    assert len(terms) == 3 * n * n + 2 * n + (n > 2)
    for _, arg in terms:
        assert arg.cancelled() is arg
        assert ratfunc._sympy_cancel(arg).serialize() == arg.serialize()


# -- weight-7 entries -------------------------------------------------------------

def test_xi7_class_count():
    assert get_equation("xi7_explicit").sum.count_distinct_up_to_inversion() == 274
    assert get_equation("xi7_symmetric").sum.count_distinct_up_to_inversion() == 274


def test_xi7_sixty_identity():
    lhs = get_equation("xi7_explicit").sum.scale(60).inversion_class_vector()
    rhs = get_equation("xi7_symmetric").sum.inversion_class_vector()
    assert lhs == rhs


def test_xi7_weight_balance():
    for _, _, (a, b, c, d) in XI7_BLOCKS:
        assert weight_wt(a, b) == weight_wt(c, d)


def test_xi7_block_multiplicities_match_first_factor():
    from polyrel.catalog import _block_sum
    from polyrel.formal import FormalSum

    for first, _, (a, b, c, d) in XI7_BLOCKS[:8]:
        block = FormalSum(_block_sum(a, b, c, d))
        mults = {}
        for coeff, arg in block:
            key = inversion_class_key(arg)
            mults[key] = mults.get(key, Fraction(0)) + coeff
        assert {int(m) for m in mults.values()} == {first.denominator}


# -- exponent-family helpers --------------------------------------------------------

def test_theta_examples():
    assert theta((1, -1, 0)) == (1, 1, -2)
    assert theta((-1, -2, 3)) == (-1, -1, -1)


def test_theta_maps_sum_zero_into_repeated_plane():
    for a in range(-3, 4):
        for b in range(-3, 4):
            img = theta((a, b, -a - b))
            assert img[0] == img[1]


def test_a_k_sets_match_display():
    sets = a_k_sets()
    assert set(sets["A1"]) == {
        (1, 1, -2), (-1, -1, 2), (-1, -1, 1), (1, 1, -1), (0, 0, 1), (0, 0, -1),
    }
    assert set(sets["A2"]) == {(2, 2, -3), (-1, -1, 3), (-1, -1, 0)}
    assert set(sets["A3"]) == {
        (-1, -1, -1), (-1, -1, 4), (-2, -2, 5), (-2, -2, 1), (3, 3, -4), (3, 3, -5),
    }
    assert sets["delta"] == (-1, -1, -1)


def test_omega_values_and_domain():
    assert omega((-1, -1, 4)) == Fraction(-1, 5)
    with pytest.raises(DomainError):
        omega((-1, -1, -1))


def test_weight_wt_examples():
    assert weight_wt(1, 0) == 2
    assert weight_wt(-2, 3) == 2
    assert weight_wt(0, 1) == 1


def test_s3_cosets():
    assert len(s3_cosets((1, 1, -2))) == 3
    assert len(s3_cosets((-1, -1, -1))) == 1


def test_phi_alpha_delta_is_inverse_of_f():
    z = RatFunc.var("z")
    f = -(z * z * (1 - z) ** 2) / (1 - z + z * z) ** 3  # f = -f1 f2 f3
    assert phi_alpha((-1, -1, -1)).equivalent(1 / f)


def test_phi_alpha_unit_exponents():
    z = RatFunc.var("z")
    C = 1 - z + z * z
    assert phi_alpha((1, 0, 0)).equivalent(z / C)        # -f1
    assert phi_alpha((0, 1, 0)).equivalent((z - 1) / C)  # f2
    assert phi_alpha((0, 0, 1)).equivalent(z * (1 - z) / C)


# -- power products: the memo against the sequential product ---------------------------

def reference_power_product(sign, factor_exps):
    """One MultiPoly multiplication per factor power, variable by variable."""
    num = MultiPoly.const(Fraction(sign))
    den = MultiPoly.const(Fraction(1))
    for var, exps in factor_exps.items():
        z = MultiPoly.var(var)
        one = MultiPoly.const(1, [var])
        irr = (z, one - z, one - z + z * z)
        for idx, e in exps.items():
            if e > 0:
                num = num * irr[idx] ** e
            elif e < 0:
                den = den * irr[idx] ** (-e)
    rf = RatFunc(num, den)
    rf._cancelled = rf
    return rf


def _power_product_calls(monkeypatch, build):
    """(sign, factor_exps, result) of every _power_product call ``build`` makes."""
    calls = []
    real = catalog._power_product

    def record(sign, factor_exps):
        rf = real(sign, factor_exps)
        calls.append((sign, factor_exps, rf))
        return rf

    monkeypatch.setattr(catalog, "_power_product", record)
    build()
    return calls


def _assert_match_reference(calls):
    for sign, factor_exps, rf in calls:
        ref = reference_power_product(sign, factor_exps)
        assert rf.vars == ref.vars
        # ordered term lists: the build is the sequential product term for
        # term, the order evaluate_in's floating-point sum runs in
        assert list(rf.num.terms.items()) == list(ref.num.terms.items())
        assert list(rf.den.terms.items()) == list(ref.den.terms.items())
        assert rf._cancelled is rf


def test_xi7_power_products_match_sequential_product(monkeypatch):
    calls = _power_product_calls(
        monkeypatch, lambda: (catalog.xi7_explicit(), catalog.xi7_symmetric())
    )
    assert len(calls) == 868
    assert len({id(rf) for _, _, rf in calls}) == 517
    _assert_match_reference(calls)


def test_phi_alpha_power_products_match_sequential_product(monkeypatch):
    def build():
        sets = a_k_sets()
        for k in (1, 2, 3):
            for alpha in sets[f"A{k}"]:
                for sa in s3_cosets(alpha):
                    phi_alpha(sa)
                    phi_alpha(sa, "u")

    calls = _power_product_calls(monkeypatch, build)
    assert len(calls) == 2 * 43
    _assert_match_reference(calls)


@pytest.mark.parametrize(
    "sign, factor_exps",
    [
        (1, {"t": {0: 2, 1: 3, 2: -1}}),
        (-1, {"t": {0: 2, 1: 3, 2: -1}}),  # same exponents, other sign
        (-1, {"t": {1: 2, 2: 3}, "u": {0: -1, 1: -4}}),
        (1, {"u": {1: 3, 2: -2}, "t": {1: -1, 2: 2}}),  # variables not sorted
        (1, {"t": {1: -2}, "u": {2: 1}}),  # t only in the denominator
        (-1, {"a": {1: 1, 2: 1}, "t": {1: 2}, "u": {2: -1}}),
        (1, {"t": {}}),
    ],
)
def test_power_product_matches_sequential_product(sign, factor_exps):
    _assert_match_reference([(sign, factor_exps, catalog._power_product(sign, factor_exps))])


def test_block_argument_is_built_once():
    build = catalog._block_argument
    assert build(1, -3, 2, -2, 3, 1) is build(1, -3, 2, -2, 3, 1)
    explicit = {id(arg) for _, arg in catalog.xi7_explicit().sum}
    symmetric = {id(arg) for _, arg in catalog.xi7_symmetric().sum}
    assert len(explicit & symmetric) == 220


def test_xi7_cold_build_serializes_each_argument_once(monkeypatch):
    """Both weight-7 sums from cold caches: no gcd, since every argument is a
    power product marked as its own cancelled form, and at most one
    serialization (two ``to_expr_string`` calls) per distinct argument object,
    since FormalSum's merge key and sort key are then the same cached string."""
    catalog._cache.clear()
    catalog._power_products.clear()
    catalog._one_variable_part.cache_clear()
    counts = {"cancel": 0, "expr": 0}
    real_cancel = ratfunc._sympy_cancel
    real_expr = MultiPoly.to_expr_string

    def cancel(f):
        counts["cancel"] += 1
        return real_cancel(f)

    def expr(self):
        counts["expr"] += 1
        return real_expr(self)

    monkeypatch.setattr(ratfunc, "_sympy_cancel", cancel)
    monkeypatch.setattr(MultiPoly, "to_expr_string", expr)
    get_equation("xi7_explicit")
    get_equation("xi7_symmetric")
    assert len(catalog._power_products) == 517
    assert counts["cancel"] == 0
    assert counts["expr"] <= 2 * len(catalog._power_products)


# -- kernel soundness sweep (reduced parameters; acceptance runs full) ---------------

@pytest.mark.parametrize(
    "name",
    ["five_term", "three_term", "goncharov22", "goncharov22_sym", "relation34", "gamma21"],
)
def test_equation_kernel_membership(name):
    eq = get_equation(name)
    verdict = kernel_test(eq.sum, eq.weight, trials=3, functionals=3, seed=17)
    assert verdict.passed


def test_xi7_kernel_membership():
    eq = get_equation("xi7_explicit")
    verdict = kernel_test(
        eq.sum, 7, trials=2, functionals=2, seed=17, specialization_height=7
    )
    assert verdict.passed


def test_every_equation_passes_numeric_soundness():
    # global soundness: every entry flagged as an equation vanishes
    # numerically (reduced point counts; the acceptance suite runs full ones)
    from polyrel.numeric import PrecisionPolicy
    from polyrel.verify import verify_numeric

    policy = PrecisionPolicy(40)
    for name in equation_names():
        eq = get_equation(name)
        if not eq.is_equation:
            continue
        points = 2 if eq.weight >= 7 else 3
        verdict = verify_numeric(eq, points=points, policy=policy, seed=23)
        assert verdict.passed, (name, verdict.witness)


def test_unknown_equation_rejected():
    with pytest.raises(DomainError):
        get_equation("nope")
    assert "xi7_explicit" in equation_names()


def test_equation_json_roundtrip():
    for name in ("five_term", "goncharov22", "f17"):
        eq = get_equation(name)
        back = equation_from_json(eq.to_json())
        assert back.sum == eq.sum
        assert back.weight == eq.weight
        assert back.variables == eq.variables


SYMBOLIC_RELATIONS = (
    "five_term",
    "three_term",
    "goncharov22",
    "goncharov22_sym",
    "gamma21",
    "relation34",
    "xi7_explicit",
    "xi7_symmetric",
)


def test_symbolic_path_needs_no_numeric_kernel():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "sys.modules['polyrel.numeric'] = None  # any import of it raises ImportError\n"
        "from polyrel import get_equation, kernel_test\n"
        f"eqs = {{name: get_equation(name) for name in {SYMBOLIC_RELATIONS!r}}}\n"
        "for name in ('relation34', 'xi7_explicit'):\n"
        "    eq = eqs[name]\n"
        "    verdict = kernel_test(\n"
        "        eq.sum, eq.weight, trials=2, functionals=2, seed=0, specialization_height=7\n"
        "    )\n"
        "    assert verdict.status == 'pass', (name, verdict.status)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    import polyrel
    from polyrel import PrecisionPolicy, cl_m, poly_roots
    from polyrel import numeric

    for name in polyrel.__all__:
        assert getattr(polyrel, name) is not None, name
    assert (cl_m, PrecisionPolicy, poly_roots) == (
        numeric.cl_m,
        numeric.PrecisionPolicy,
        numeric.poly_roots,
    )
    with pytest.raises(AttributeError):
        polyrel.no_such_name
