import itertools
import math
from fractions import Fraction

import pytest

from polyrel.catalog import equation_names, get_equation
from polyrel.exact import DomainError, SplitMix64
from mpmath.libmp import from_man_exp

from polyrel.numeric import PrecisionPolicy, fixed_width, from_fixed_pair, poly_roots
from polyrel.ratfunc import INFINITY, RatFunc
from polyrel.verify import (
    _cross_ratio_pattern,
    _cross_ratio_terms,
    _evaluate_terms,
    _image,
    _spot,
    _squarefree,
    preimages,
    random_phi,
    sample_complex,
    verify_dilog_general,
    verify_fourlog_numeric,
    verify_numeric,
    verify_numeric_sum,
    verify_trilog_theorem,
    verify_wojtkowiak,
)

POLICY = PrecisionPolicy(40)
CTX = POLICY.context

z = RatFunc.var("z")


def test_sampler_respects_annulus():
    rng = SplitMix64(3)
    for _ in range(50):
        pt = sample_complex(rng, CTX)
        assert 0.2 <= abs(pt) <= 5.0
        assert abs(pt - 1) >= 0.1


def test_sampling_deterministic():
    a = [complex(sample_complex(SplitMix64(5), CTX)) for _ in range(1)]
    b = [complex(sample_complex(SplitMix64(5), CTX)) for _ in range(1)]
    assert a == b


def test_preimages_of_a_certified_root():
    """A Root stands for the number (x + iy) / 2^wp: under z^2 the certified
    root sqrt 2 has the preimages -2^(1/4) and 2^(1/4)."""
    root = poly_roots([-2, 0, 1], POLICY)[1]  # sorted by (re, im): +sqrt 2
    pts = preimages(z * z, root, POLICY)
    fourth = CTX.mpf(2) ** CTX.mpf(0.25)
    vals = sorted((from_fixed_pair(*p.pair, CTX) for p in pts), key=lambda v: v.real)
    assert len(vals) == 2
    for v, sign in zip(vals, (-1, 1)):
        assert abs(v - sign * fourth) < POLICY.tolerance, v


def test_non_finite_point_names_the_value():
    """A non-finite point raises DomainError naming the value, not a caller."""
    with pytest.raises(DomainError, match=r"finite number, got \(inf\+0j\)") as info:
        verify_dilog_general(z * z, complex(math.inf, 0), 1, 0, INFINITY, POLICY)
    assert "poly_roots" not in str(info.value)


def test_preimages_of_polynomial():
    phi = z * (1 - z)
    pts = preimages(phi, Fraction(3, 16), POLICY)
    assert len(pts) == 2
    vals = sorted(complex(from_fixed_pair(*p.pair, CTX)).real for p in pts)
    assert abs(vals[0] - 0.25) < 1e-20 and abs(vals[1] - 0.75) < 1e-20


# sha256 prefixes of the Root tuples poly_roots returned, call by call, while
# verify_fourlog_numeric sampled: criterion 8's seeds and points, then three
# task seeds of the benchmark's weight4 workload (one point each), all at
# criterion 8's policy.  Changes to the root finder must keep every one.
FOURLOG_ROOT_DIGESTS = {
    (0, 20): ["141e2b94f3853171", "3a829c05ab3d312f", "1b6e00efd41c2604", "8a4ab0089c8cb79a"],
    (20260808, 20): ["b4ca2e9c951a83c2", "25915bd270113364", "82276aec8d620759", "57d2683e4c71a698"],
    (7422510017824750757, 1): ["28eea17177e3f6f4", "b25894d792b18db1", "2f49ef5aecf8a0d0", "038889b676793122"],
    (5331106820786274622, 1): ["ee076772ff01f14f", "b41008acdc29efd8", "367ac3bc298be6bf", "d9d11b7890c7f090"],
    (2814191923245174489, 1): ["14f80078513dfa72", "4be0428914057de4", "b3537dc47a47efb9", "d518b3a3e6becf30"],
}


@pytest.mark.parametrize("seed, points", list(FOURLOG_ROOT_DIGESTS))
def test_fourlog_preimage_roots_stay_bit_identical(monkeypatch, seed, points):
    import hashlib

    import polyrel.verify as verify

    policy = PrecisionPolicy(60, t_slack=20)
    for n, digest in zip(range(2, 6), FOURLOG_ROOT_DIGESTS[seed, points]):
        calls = []

        def record(coeffs, policy):
            roots = poly_roots(coeffs, policy)
            calls.append([tuple(r) for r in roots])
            return roots

        monkeypatch.setattr(verify, "poly_roots", record)
        verify_fourlog_numeric(n, points=points, policy=policy, seed=seed)
        assert len(calls) == 2 * points
        assert hashlib.sha256(repr(calls).encode()).hexdigest()[:16] == digest, n


def test_preimages_at_infinity_for_polynomials():
    phi = z * z
    pts = preimages(phi, INFINITY, POLICY)
    assert pts == [INFINITY, INFINITY]


def test_preimages_of_rational_map():
    phi = (z * z + 1) / z
    pts = preimages(phi, INFINITY, POLICY)  # pole at 0 plus one at infinity
    assert len(pts) == 2
    assert sum(1 for p in pts if p is INFINITY) == 1


def test_cross_ratio_pattern_conventions():
    """An infinite point drops its factors, and points with equal values (an
    int, an mpc, a Fraction) share a variable, so coincident pairs give the
    constants 0, INFINITY and 1."""
    a, b, c = _spot(2, POLICY), _spot(3, POLICY), _spot(5, POLICY)
    a2 = _spot(CTX.mpc(2), POLICY)
    (_, value), = _cross_ratio_terms([(1, (INFINITY, a, b, c))], None, POLICY)
    wp = POLICY.fixed_bits
    assert value == (3 << wp, 0, wp)  # (a - c) / (a - b) = 3, exactly
    pattern = (INFINITY, (0, False), (1, False), (2, False))
    ((_, cr),) = _cross_ratio_pattern(pattern, None).terms
    p0, p1, p2 = (RatFunc.var(v) for v in ("p0", "p1", "p2"))
    assert cr.equivalent((p0 - p2) / (p0 - p1))
    a3 = _spot(Fraction(2), POLICY)
    assert _cross_ratio_terms([(1, (a, b, a2, c))], None, POLICY) == [(1, 0)]
    assert _cross_ratio_terms([(1, (a, a3, b, c))], None, POLICY) == [(1, 1)]
    # INFINITY, where CL_m vanishes, is the empty sum
    assert not _cross_ratio_pattern(((0, False), (1, False), (2, False), (0, False)), None).terms
    assert _cross_ratio_terms([(1, (a, b, c, a2))], None, POLICY) == []


def test_cross_ratio_terms_map_phi():
    """phi enters a term's cross ratio by substitution, and phi(INFINITY) is
    INFINITY for a polynomial, the ratio of leading coefficients otherwise."""
    phi = z * (1 - z)
    a, b, c = _spot(Fraction(1, 2), POLICY), _spot(2, POLICY), _spot(3, POLICY)
    (_, value), = _cross_ratio_terms([(1, (_image(phi, a, POLICY), b, c, INFINITY))], phi, POLICY)
    wp = POLICY.fixed_bits
    assert value == ((11 << wp) // 4, 0, wp)  # (phi(1/2) - 3) / (2 - 3) = 11/4
    assert _image(phi, INFINITY, POLICY) is INFINITY
    assert _image((2 * z + 1) / (z - 3), INFINITY, POLICY).pair == (2 << wp, 0, wp)


def test_verify_numeric_five_term():
    verdict = verify_numeric(get_equation("five_term"), points=10, policy=POLICY, seed=4)
    assert verdict.passed
    assert verdict.trials["max_abs_value"] < 1e-20


def test_verify_numeric_deterministic():
    a = verify_numeric_sum(get_equation("three_term").sum, 3, points=4, policy=POLICY, seed=11)
    b = verify_numeric_sum(get_equation("three_term").sum, 3, points=4, policy=POLICY, seed=11)
    assert a.to_json() == b.to_json()


def test_verify_numeric_catches_non_equation():
    from polyrel.formal import FormalSum

    base = get_equation("five_term").sum
    first_arg = base.terms[0][1]
    s = base + FormalSum.single(first_arg, Fraction(1, 7))
    verdict = verify_numeric_sum(s, 2, points=3, policy=POLICY, seed=2)
    assert not verdict.passed
    assert verdict.witness is not None


def test_dilog_general_five_term_special_case():
    phi = z * (1 - z)
    verdict = verify_dilog_general(
        phi, complex(0.37, 0.61), 1, 0, INFINITY, POLICY
    )
    assert verdict.passed


def test_dilog_general_random_points():
    rng = SplitMix64(21)
    phi = z * z
    pts = [sample_complex(rng, CTX) for _ in range(4)]
    verdict = verify_dilog_general(phi, pts[0], pts[1], pts[2], pts[3], POLICY)
    assert verdict.passed


def test_trilog_theorem_quadratic():
    rng = SplitMix64(22)
    phi = z * (1 - z)
    pts = [sample_complex(rng, CTX) for _ in range(8)]
    verdict = verify_trilog_theorem(phi, pts[0:2], pts[2:4], pts[4:6], pts[6:8], POLICY)
    assert verdict.passed


def test_wojtkowiak_independence_of_x():
    rng = SplitMix64(23)
    phi = z * (1 - z)
    pts = [sample_complex(rng, CTX) for _ in range(5)]
    verdict = verify_wojtkowiak(phi, pts[0], pts[1], pts[2], pts[3], pts[4], POLICY)
    assert verdict.passed


#: Criterion 7's policy: tolerance 1e-30.
FAMILY_POLICY = PrecisionPolicy(50, t_slack=20)


def _family_drivers():
    """Each preimage driver on a random cubic at sampled points, as a
    callable, the way criterion 7 calls them."""
    phi = random_phi(SplitMix64(24))
    rng = SplitMix64(25)
    pts = [sample_complex(rng, FAMILY_POLICY.context) for _ in range(10)]
    p = FAMILY_POLICY
    return {
        "dilog_general": lambda: verify_dilog_general(phi, pts[0], pts[1], pts[2], pts[3], p),
        "trilog_theorem": lambda: verify_trilog_theorem(phi, pts[0:2], pts[2:4], pts[4:6], pts[6:8], p),
        "wojtkowiak": lambda: verify_wojtkowiak(phi, pts[0], pts[1], pts[2], pts[8], pts[9], p),
    }


@pytest.mark.parametrize("driver", ["dilog_general", "trilog_theorem", "wojtkowiak"])
def test_preimage_drivers_fail_on_a_moved_root(monkeypatch, driver):
    """Negative control: the drivers pass near the kernel's floor on exact
    preimages, and fail far above the tolerance once one root of the first
    family moves by 2^-60."""
    import polyrel.verify as verify

    run = _family_drivers()[driver]
    verdict = run()
    assert verdict.passed and verdict.trials["error"] < 1e-65, verdict.to_json()
    calls = []

    def moved(phi, w, policy):
        roots = preimages(phi, w, policy)
        if not calls:
            r = roots[0]
            roots[0] = r._replace(x=r.x + (1 << (r.wp - 60)))
        calls.append(w)
        return roots

    monkeypatch.setattr(verify, "preimages", moved)
    verdict = run()
    assert calls and not verdict.passed
    assert verdict.witness["error"] > 1e-25, verdict.to_json()


def test_fourlog_numeric_smallest_family():
    verdict = verify_fourlog_numeric(2, points=3, policy=PrecisionPolicy(50), seed=6)
    assert verdict.passed
    assert verdict.trials["max_abs_value"] < 1e-25


@pytest.mark.parametrize("points", [0, -1])
def test_numeric_verifiers_need_points(points):
    # zero samples would report vanishing with no evaluation behind it
    eq = get_equation("five_term")
    with pytest.raises(DomainError, match="points >= 1"):
        verify_numeric_sum(eq.sum, 2, points=points)
    with pytest.raises(DomainError, match="points >= 1"):
        verify_numeric(eq, points=points)
    with pytest.raises(DomainError, match="points >= 1"):
        verify_fourlog_numeric(2, points=points)


def test_random_phi_is_cubic_and_squarefree():
    phi = random_phi(SplitMix64(9))
    assert phi.num.degree_in("z") == 3


def test_squarefree_agrees_with_the_discriminant_over_the_height_box():
    """Over every monic cubic z^3 + a z^2 + b z + c with a, b, c drawn from
    random_rational's height-5 values (37 each, 0 and 1 excluded), the exact
    gcd(p, p') test says squarefree exactly where the discriminant of
    A z^3 + B z^2 + C z + D, the cubic with denominators cleared, is
    nonzero."""
    values = sorted({Fraction(p, q) for p in range(-5, 6) for q in range(1, 6)} - {0, 1})
    assert len(values) == 37
    repeated = 0
    for c, b, a in itertools.product(values, repeat=3):
        A = math.lcm(a.denominator, b.denominator, c.denominator)
        B, C, D = (int(v * A) for v in (a, b, c))
        disc = B * B * C * C - 4 * A * C**3 - 4 * B**3 * D - 27 * A * A * D * D + 18 * A * B * C * D
        assert _squarefree([c, b, a, Fraction(1)]) == (disc != 0), (a, b, c)
        repeated += disc == 0
    assert repeated == 22


def reference_terms(s, binding, ctx):
    """The sum's terms at a complex point by ``RatFunc.evaluate_in``, one
    argument at a time in mpmath, with the numeric drivers' degenerate rule
    (pole, |x| < 1e-8, |x| > 1e8, |x - 1| < 1e-8); constants first."""
    co = lambda q: ctx.mpf(q.numerator) / ctx.mpf(q.denominator)
    constants, values = [], []
    for c, a in s:
        if a.is_constant():
            constants.append((c, a.constant_value()))
            continue
        val, ok = a.evaluate_in(binding, co)
        if not ok:
            return None
        mag = abs(val)
        if mag < 1e-8 or mag > 1e8 or abs(val - 1) < 1e-8:
            return None
        values.append((c, val))
    return constants + values


def exact_mpc(value, ctx):
    """A fixed-point pair (x, y, wp) as the mpc of its exact value; any other
    value unchanged."""
    if not isinstance(value, tuple):
        return value
    x, y, wp = value
    return ctx.make_mpc((from_man_exp(x, -wp), from_man_exp(y, -wp)))


def _plan_bindings(name, policy):
    """Points the numeric drivers draw for a catalog sum: annulus samples for
    rational sums (and each variable moved near 1, 0 and infinity, where
    arguments degenerate), the roots of z^n - z^(n-1) - t and of
    z^n - z^(n-1) - u, as fixed-point pairs, for the weight-4 templates."""
    ctx = policy.context
    variables = get_equation(name).sum.variables()
    rng = SplitMix64(7).split(name)
    if name.startswith("fourlog_n"):
        n = int(name.rsplit("n", 1)[1])
        out = []
        for _ in range(3):
            binding = {}
            for prefix in "xy":
                target = sample_complex(rng, ctx)
                coeffs = [-target] + [0] * (n - 2) + [-1, 1]
                for k, r in enumerate(poly_roots(coeffs, policy)):
                    binding[f"{prefix}{k + 1}"] = r.pair
            out.append(binding)
        return out
    out = [{v: sample_complex(rng, ctx) for v in variables} for _ in range(3)]
    for v in variables:
        for special in (1 + 1e-12j, 1e-10 + 1e-11j, 1e10 - 1e9j):
            binding = {w: sample_complex(rng, ctx) for w in variables}
            binding[v] = ctx.mpc(special)
            out.append(binding)
    return out


@pytest.mark.parametrize("digits", [30, 60])
def test_plan_evaluation_matches_evaluate_in(digits):
    """The argument plan's fixed-point evaluation agrees with RatFunc.evaluate_in
    on every catalog sum (root-bound pairs taken at their exact values): the
    same degenerate draws, and values (fixed-point pairs, converted by
    from_fixed_pair) within 10^-(P+5) max(1, |x|)."""
    policy = PrecisionPolicy.for_digits(digits)
    ctx = policy.context
    flags = set()
    for name in equation_names():
        s = get_equation(name).sum
        for binding in _plan_bindings(name, policy):
            got = _evaluate_terms(s, binding, policy)
            ref = reference_terms(s, {v: exact_mpc(b, ctx) for v, b in binding.items()}, ctx)
            flags.add(ref is None)
            assert (got is None) == (ref is None), (name, binding)
            if ref is None:
                continue
            assert [c for c, _ in got] == [c for c, _ in ref]
            for (_, x), (_, r) in zip(got, ref):
                if isinstance(r, Fraction):
                    assert x == r
                else:
                    x = from_fixed_pair(*x, ctx)
                    bound = ctx.mpf(10) ** -(digits + 5) * max(1, abs(r))
                    assert abs(x - r) <= bound, (name, x, r)
    assert flags == {True, False}  # both kinds of draw were compared


def test_plan_pairs_take_the_shared_width_rule():
    """Every non-constant argument reaches the kernel as a fixed-point pair
    whose width is numeric.fixed_width of its own top bit, the rule an mpc
    argument meets in _fixed_argument; arguments far from the unit circle
    take extra bits."""
    policy = PrecisionPolicy.for_digits(30)
    widths = set()
    for name in ("xi7_explicit", "goncharov22", "fourlog_n3"):
        s = get_equation(name).sum
        for binding in _plan_bindings(name, policy):
            terms = _evaluate_terms(s, binding, policy)
            for _, value in terms or ():
                if isinstance(value, Fraction):
                    continue
                x, y, wp = value
                top = max(abs(x).bit_length(), abs(y).bit_length()) - wp
                assert wp == fixed_width(top, policy), (name, value)
                widths.add(wp > policy.fixed_bits)
    assert widths == {True, False}
