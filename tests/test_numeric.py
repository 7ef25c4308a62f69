import cmath
import math
from fractions import Fraction
from math import factorial, isqrt, log2

import mpmath
import pytest
from oracle import context, to_mp

from polyrel import numeric
from polyrel.exact import DomainError, SplitMix64
from polyrel.numeric import (
    BranchAmbiguityError,
    PoleError,
    PrecisionPolicy,
    bernoulli,
    cl_apply,
    cl_m,
    exact_complex,
    li_m,
    poly_roots,
    zeta_int,
)
from polyrel.ratfunc import INFINITY

POLICY = PrecisionPolicy(50)
CTX = context(POLICY)
TOLERANCE = to_mp(POLICY.tolerance, CTX)


def close(a, b, digits=45):
    """|a - b| < 10^-digits for a value of the numeric module and an mpmath
    number b."""
    return abs(to_mp(a, CTX) - b) < CTX.mpf(10) ** (-digits)


def exact_mpc(value, ctx=CTX):
    """The mpc of a number's exact value (numeric.exact_complex), exact for
    a dyadic value and otherwise rounded to the context ``ctx``."""
    return to_mp(numeric.exact_complex(value), ctx)


# -- Bernoulli ---------------------------------------------------------------

def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    assert all(bernoulli(r) == 0 for r in range(3, 31, 2))


def test_bernoulli_recurrence_oracle():
    # sum_k C(r+1, k) B_k = 0 for r >= 1
    from math import comb

    for r in range(1, 20):
        assert sum(comb(r + 1, k) * bernoulli(k) for k in range(r + 1)) == 0


# -- zeta ----------------------------------------------------------------------

def test_zeta_2_closed_form():
    assert close(zeta_int(2, POLICY), CTX.pi ** 2 / 6, 55)


def test_zeta_4_closed_form():
    assert close(zeta_int(4, POLICY), CTX.pi ** 4 / 90, 55)


def test_zeta_3_frozen_digits():
    # Apery's constant, frozen from an independent evaluation
    expected = CTX.mpf("1.2020569031595942853997381615114499907649862923405")
    assert close(zeta_int(3, POLICY), expected, 48)


def test_zeta_matches_mpmath_oracle():
    # large k take the truncated loop that the log-expansion table relies on
    with mpmath.workdps(60):
        for k in [*range(2, 12), 40, 101, 300]:
            ref = CTX.mpf(mpmath.nstr(mpmath.zeta(k), 55))
            assert close(zeta_int(k, POLICY), ref, 50)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta_int(1, POLICY)


@pytest.mark.parametrize("digits", [30, 50, 60, 120])
def test_zeta_fixed_within_two_units_of_mpmath(digits):
    """The fixed-point zeta is within 2 units of 2^-wp for every k the table
    uses, against mpmath 64 bits wider, and zeta_int is its rounding to the
    policy's prec bits (within one unit in its last place, 2^(1-prec) for
    1 < zeta(k) < 2)."""
    policy = PrecisionPolicy.for_digits(digits)
    prec, wp = policy.prec, policy.fixed_bits
    # the table reads zeta(2) .. zeta(k_max - 1)
    k_max = numeric._terms(wp, log2(numeric._U_MAX), numeric._COEFF_BITS + 2)
    with mpmath.workprec(wp + 64):
        for k in range(2, k_max):
            ref = mpmath.zeta(k)
            assert abs(numeric._zeta_fixed(k, wp) - ref * 2 ** wp) <= 2, k
            assert abs(to_mp(zeta_int(k, policy)) - ref) * 2 ** (prec - 1) <= 1, k


@pytest.mark.parametrize("digits", [30, 60, 120])
def test_log_table_entries_match_mpmath(digits):
    """Every entry of _log_table(7, wp) against e_(j,k) = zeta(j-k) (2pi)^k / k!
    from mpmath 64 bits wider, dist against (2pi)^(j-1) / (j-1)!.  zeta's unit
    times (2pi)^k / k! <= 86 bounds the error, far inside the guard bits."""
    wp = PrecisionPolicy.for_digits(digits).fixed_bits
    table = numeric._log_table(7, wp)
    with mpmath.workprec(wp + 64):
        one, twopi = mpmath.mpf(2) ** wp, 2 * mpmath.pi

        def e(j, k):
            return mpmath.zeta(j - k) * twopi ** k / mpmath.factorial(k) * one

        for j, (head, tail, dist) in enumerate(table, start=1):
            assert head[j - 1] == 0
            pairs = [(e(j, k), v) for k, v in enumerate(head) if k != j - 1]
            pairs += [(e(j, j + 1 + 2 * i), v) for i, v in enumerate(tail)]
            pairs.append((twopi ** (j - 1) / mpmath.factorial(j - 1) * one, dist))
            assert max(abs(v - ref) for ref, v in pairs) <= 2 ** 7, j



@pytest.mark.parametrize("digits", [30, 60, 120])
def test_eta_table_entries_match_mpmath(digits):
    """Every entry of _eta_table(7, wp) against -eta(j-k) pi^k / k! from
    mpmath 64 bits wider (its altzeta is Dirichlet's eta), and below 2^3 in
    size as _COEFF_BITS needs."""
    wp = PrecisionPolicy.for_digits(digits).fixed_bits
    table = numeric._eta_table(7, wp)
    with mpmath.workprec(wp + 64):
        one = mpmath.mpf(2) ** wp

        def e(j, k):
            return -mpmath.altzeta(j - k) * mpmath.pi ** k / mpmath.factorial(k) * one

        for j, (head, tail) in enumerate(table, start=1):
            assert len(head) == j + 1
            pairs = [(e(j, k), v) for k, v in enumerate(head)]
            pairs += [(e(j, j + 1 + 2 * i), v) for i, v in enumerate(tail)]
            assert max(abs(v - ref) for ref, v in pairs) <= 16, j
            assert max(abs(v) for _, v in pairs) < 8 << wp

# -- Li -------------------------------------------------------------------------

def test_li1_is_log():
    assert close(li_m(1, 0.5, POLICY), CTX.log(2))


def test_li2_at_one_is_zeta2():
    assert close(li_m(2, 1, POLICY), CTX.pi ** 2 / 6)


def test_li2_half_series_oracle():
    # direct series at 1/2, summed independently
    s = CTX.mpf(0)
    for n in range(1, 200):
        s += CTX.mpf(1) / (CTX.mpf(2) ** n * n * n)
    assert close(li_m(2, Fraction(1, 2), POLICY), s)
    closed = CTX.pi ** 2 / 12 - CTX.log(2) ** 2 / 2
    assert close(li_m(2, Fraction(1, 2), POLICY), closed)


def test_li_branch_cut_error():
    with pytest.raises(BranchAmbiguityError):
        li_m(2, 1.5, POLICY)
    with pytest.raises(PoleError):
        li_m(1, 1, POLICY)


def _random_grid(m):
    rng = SplitMix64(90 + m)
    for _ in range(8):
        re = rng.next_int(-300, 300) / 100
        im = rng.next_int(-300, 300) / 100 or 0.17
        yield complex(re, im)


@pytest.mark.parametrize("m", range(1, 8))
def test_li_against_mpmath(m):
    with mpmath.workdps(70):
        for z in _random_grid(m):
            mine = to_mp(li_m(m, z, POLICY), CTX)
            ref = mpmath.polylog(m, mpmath.mpc(z))
            got = abs(complex(mine.real, mine.imag) - complex(ref))
            assert got < 1e-12  # float-level cross-check; digit-level below
            ref_hi = CTX.mpc(mpmath.nstr(ref.real, 58), mpmath.nstr(ref.imag, 58))
            assert abs(mine - ref_hi) < CTX.mpf(10) ** -50


# Region boundaries of the fused kernel (|z| = 1/2, |z| = 2), the unit
# circle (where cl_m folds), the neighbourhood of z = 1 and the negative
# real axis.
_EDGE_POINTS = [
    cmath.rect(0.5 - 1e-12, 1.1),
    cmath.rect(0.5 + 1e-12, 1.1),
    cmath.rect(1 - 1e-12, 0.7),
    cmath.rect(1 + 1e-12, 0.7),
    0.5 - 1e-12,
    -0.5 - 1e-12,
    -1,
    1j,
    -1j,
    cmath.exp(1j * cmath.pi / 3),
    1 - 1e-6,
    0.999 + 0.02j,
    cmath.rect(2 - 1e-12, 2.0),
    cmath.rect(2 + 1e-12, 2.0),
    -(2 - 1e-12),
    -(2 + 1e-12),
    -0.25,
    -0.75,
    -1.5,
    -3.0,
    # far from the unit circle, where the conversion takes extra bits and
    # li_m and cl_m fold to 1/z
    cmath.rect(1e20, 0.3),
    cmath.rect(1e20, -2.0),
    -1e20,
    cmath.rect(1e-20, 2.5),
    -1e-20,
    cmath.rect(1e40, 1.1),
    -1e40,
    cmath.rect(1e-40, -0.7),
    -1e-40,
    # an imaginary part below the fixed point's unit still picks the side
    # of the cut (1, oo), or of the negative axis where li_m folds
    3 + 1e-100j,
    3 - 1e-100j,
    -3 + 1e-100j,
    -3 - 1e-100j,
]


def _assert_within(mine, ref, digits, where):
    """|mine - ref| < 10^-digits * max(1, |ref|), at the current mpmath precision."""
    bound = mpmath.mpf(10) ** -digits * max(1, abs(ref))
    assert abs(to_mp(mine) - ref) < bound, where


def _cl_oracle(m, lis, logabs):
    """CL_m from mpmath's Li_1..Li_7 values at z and log|z|."""
    acc = sum(
        mpmath.mpf(2) ** r * mpmath.bernoulli(r) / mpmath.factorial(r)
        * logabs ** r * lis[m - r - 1]
        for r in range(m)
    )
    return acc.real if m % 2 else acc.imag


@pytest.mark.parametrize("digits", [50, 60])
def test_li_and_cl_differential_against_mpmath(digits):
    """li_m (m = 1..7) and cl_m (m = 2..7) against mpmath's polylog 20 digits higher.

    The CL_m oracle is the Bernoulli-weighted sum of mpmath's principal-branch
    Li values at z itself, so it also checks the inversion fold of cl_m.
    """
    policy = PrecisionPolicy(digits)
    points = [z for m in range(1, 8) for z in _random_grid(m)] + _EDGE_POINTS
    with mpmath.workdps(digits + 20):
        for z in points:
            zz = mpmath.mpc(z)
            lis = [mpmath.polylog(j, zz) for j in range(1, 8)]
            for m in range(1, 8):
                _assert_within(li_m(m, z, policy), lis[m - 1], digits, (m, z))
            logabs = mpmath.log(abs(zz))
            for m in range(2, 8):
                _assert_within(cl_m(m, z, policy), _cl_oracle(m, lis, logabs), digits, (m, z))


@pytest.mark.parametrize("digits", [50, 60])
def test_li_keeps_relative_accuracy_at_tiny_z(digits):
    """The conversion takes as many extra bits as |z| has leading zero bits,
    so |z| = 1e-30 keeps relative error <= 10^-P (the fixed point at the
    policy's width alone would give only about P - 30 digits)."""
    policy = PrecisionPolicy(digits)
    with mpmath.workdps(digits + 20):
        for z in (cmath.rect(1e-30, 0.4), cmath.rect(1e-30, -2.9)):
            for m in range(2, 8):
                ref = mpmath.polylog(m, mpmath.mpc(z))
                err = abs(to_mp(li_m(m, z, policy)) - ref)
                assert err <= mpmath.mpf(10) ** -digits * abs(ref), (m, z)


@pytest.mark.parametrize("digits", [50, 60])
def test_li1_keeps_accuracy_near_0_and_1(digits):
    """Li_1(z) = -log(1 - z) floors 1 - z from its exact value, with the
    extra bits z or 1 - z needs: |z| = 1e-30 keeps relative error <= 10^-P,
    and z = 1 - 2^-k, which a floor of z would put on the pole or one unit
    from it, gives k log 2."""
    policy = PrecisionPolicy(digits)
    with mpmath.workdps(digits + 20):
        for z in (cmath.rect(1e-30, 0.4), cmath.rect(1e-30, -2.9)):
            ref = mpmath.polylog(1, mpmath.mpc(z))
            err = abs(to_mp(li_m(1, z, policy)) - ref)
            assert err <= mpmath.mpf(10) ** -digits * abs(ref), z
        for k in (150, 250, 1000):
            _assert_within(li_m(1, 1 - Fraction(1, 2**k), policy), k * mpmath.ln2, digits, k)


@pytest.mark.parametrize("digits", [50, 60])
def test_li_continuation_across_negative_axis(digits):
    """|z| > 2 just above, on and just below the negative real axis."""
    policy = PrecisionPolicy(digits)
    points = (-3 + 1e-30j, complex(-3, 0), complex(-3, -1e-30), -2.5 - 0.4j)
    with mpmath.workdps(digits + 20):
        for z in points:
            for m in range(2, 8):
                ref = mpmath.polylog(m, mpmath.mpc(z))
                _assert_within(li_m(m, z, policy), ref, digits, (m, z))


def test_li_log_series_parts_match_single_part_sums():
    """li_m's 1/2 < |z| <= 2 branch sums both parts of weight m from one
    sweep; the result is bit-identical to the real and imaginary parts that
    the same region's series computes in two separate calls, and near -1,
    where the eta expansion has no log term to carry arg(-w), to the parts
    that _li_all computes for CL_m."""
    rng = SplitMix64(2020)
    wp = POLICY.fixed_bits
    regions = set()
    for _ in range(50):
        z = cmath.rect(0.51 + 1.48 * rng.next_unit(), 0.001 + 6.28 * rng.next_unit())
        x, y = numeric.fixed_pair(z, wp)
        near = numeric._near_minus_one(x, y, wp)
        regions.add(near)
        for m in range(2, 8):
            re, im = (numeric._li_annulus(m, x, y, wp, branch=True)[0](m, part) for part in (0, 1))
            expected = numeric.from_fixed_pair(re, im, wp, POLICY.prec)
            assert li_m(m, z, POLICY) == expected, (m, z)
            if near:
                re, im = (numeric._li_all(m, x, y, wp, part)[0][m] for part in (0, 1))
                assert li_m(m, z, POLICY) == numeric.from_fixed_pair(re, im, wp, POLICY.prec), (m, z)
    assert regions == {True, False}


# -- needed weights, and bit identity with the full chain ---------------------------


def _full_power_chain(x, y, wp, m, part):
    """Li_1..Li_m by the power series on that part of z^n, dividing every
    weight's terms by n once more: the chain the needed-weights kernel
    shortens."""
    count = numeric._terms(wp, numeric._log2_abs(x, y, wp), 1)
    a, b = (1 << wp, x) if part == 0 else (0, y)
    terms = [b]
    p, q = 2 * x, (x * x + y * y) >> wp
    for _ in range(count - 1):
        a, b = b, (p * b - q * a) >> wp
        terms.append(b)
    out = []
    for _ in range(m):
        terms = [t // n for n, t in enumerate(terms, 1)]
        out.append(sum(terms))
    return out


def _full_chain(m, x, y, wp, part):
    """(Li_1..Li_m, log|z|) for 0 < |z| <= 2 with every weight computed."""
    norm = x * x + y * y
    if norm <= 1 << (2 * wp - 2):
        return _full_power_chain(x, y, wp, m, part), numeric._log_fixed(isqrt(norm), 0, wp)[0]
    weight, log_abs = numeric._li_annulus(m, x, y, wp)
    return [weight(j, part) for j in range(1, m + 1)], log_abs


def _seeded_grid(seed, count):
    """Points on every scale the kernel meets: far inside and outside the
    unit circle (extra bits, inversion fold), both kernel regions, the
    negative real axis and z = 1."""
    rng = SplitMix64(seed)
    points = [complex(1), -1, -0.3, 1e-25j, -1e25, cmath.rect(1 - 1e-12, 0.4)]
    for _ in range(count):
        radius = 10 ** (-8 + 16 * rng.next_unit()) if rng.next_unit() < 0.3 else 0.05 + 4 * rng.next_unit()
        points.append(cmath.rect(radius, cmath.pi * (2 * rng.next_unit() - 1)))
    return points


@pytest.mark.parametrize("digits", [30, 60, 120])
def test_li_all_needed_weights_match_the_full_chain(digits):
    """_li_all returns exactly the weights m - r with B_r != 0, each
    bit-identical to the chain that computes every weight, in all three
    kernel regions, for m = 2..8."""
    policy = PrecisionPolicy.for_digits(digits)
    wp = policy.fixed_bits
    rng = SplitMix64(digits)
    regions = set()
    for _ in range(40):
        z = cmath.rect(0.02 + 1.97 * rng.next_unit(), cmath.pi * (2 * rng.next_unit() - 1))
        x, y = numeric.fixed_pair(z, wp)
        near = numeric._near_minus_one(x, y, wp)
        regions.add("power" if abs(z) <= 0.5 else "eta" if near else "log")
        for m in range(2, 9):
            needed = {m - r for r in range(m) if bernoulli(r)}
            for part in (0, 1):
                values, log_abs = numeric._li_all(m, x, y, wp, part)
                full, full_log_abs = _full_chain(m, x, y, wp, part)
                assert set(values) == needed
                assert log_abs == full_log_abs
                assert all(values[j] == full[j - 1] for j in needed), (m, z, part)
    assert regions == {"power", "log", "eta"}
    assert numeric._cl_li_weights(7) == (1, 3, 5, 6, 7)
    assert numeric._cl_li_weights(4) == (2, 3, 4)


def _full_chain_cl(m, z, policy):
    """CL_m(z) as the full chain gives it: every weight of Li_j computed,
    the Bernoulli combination summed at the argument's width plus
    _CL_EXTRA_BITS and rounded once, by mpmath's rounding."""
    from mpmath.libmp import from_man_exp, to_rational

    if z == 0:
        return Fraction(0)
    x, y, wp = numeric._fixed_argument(z, policy)
    extra = numeric._CL_EXTRA_BITS
    x, y, wp = x << extra, y << extra, wp + extra
    base = policy.fixed_bits + extra
    one = 1 << wp
    sign = 1
    norm = x * x + y * y
    if norm > one * one:
        x, y = (x << 2 * wp) // norm, (-y << 2 * wp) // norm
        sign = (-1) ** (m - 1)
    if x == one and not y:
        return zeta_int(m, policy) if m % 2 else Fraction(0)
    values, log_abs = _full_chain(m, x, y, wp, 1 - m % 2)
    total, power = 0, one
    for r in range(m):
        if r:
            power = power * log_abs >> wp
        b = bernoulli(r)
        if b:
            weight = (b.numerator << (base + r)) // (b.denominator * factorial(r))
            total += ((weight << (wp - base)) * power >> wp) * values[m - r - 1]
    return Fraction(*to_rational(from_man_exp(sign * total, -2 * wp, policy.prec, "n")))


@pytest.mark.parametrize("digits", [30, 60])
def test_cl_and_li_are_bit_identical_to_the_full_chain(digits, monkeypatch):
    """cl_m (m = 2..8) on a seeded grid equals the full chain's value bit for
    bit, and so does li_m (m = 1..8) against its own code run on the full
    power chain, which divides by n once per weight."""
    policy = PrecisionPolicy.for_digits(digits)
    points = _seeded_grid(20260808 + digits, 200)
    got_cl = [cl_m(m, z, policy) for z in points for m in range(2, 9)]
    assert got_cl == [_full_chain_cl(m, z, policy) for z in points for m in range(2, 9)]

    def li_all_points():
        return [
            li_m(m, z, policy)
            for z in points
            for m in range(1, 9)
            if z != 1 and not (m > 1 and z.imag == 0 and z.real > 1)
        ]

    got_li = li_all_points()
    monkeypatch.setattr(
        numeric,
        "_power_series",
        lambda x, y, wp, weights, part: [_full_power_chain(x, y, wp, max(weights), part)[j - 1] for j in weights],
    )
    assert got_li == li_all_points()
    assert len(got_cl) + len(got_li) > 2900


@pytest.mark.parametrize("m, digits", [(2, 40), (3, 50), (4, 60), (7, 60)])
def test_cl_apply_differential_against_mpmath(m, digits):
    """A nonzero random combination of CL_m values (complex, Fraction,
    INFINITY and fixed-point-pair arguments) against mpmath's polylog 25
    digits higher, within cl_apply's stated bound: 2^-prec per unit of
    coefficient, plus half an ulp of the result."""
    policy = PrecisionPolicy(digits)
    rng = SplitMix64(1000 * m + digits)
    terms = []
    for _ in range(12):
        coeff = Fraction(rng.next_int(-9, 9) or 1, rng.next_int(1, 7))
        z = cmath.rect(10 ** (-1.5 + 3 * rng.next_unit()), cmath.pi * (2 * rng.next_unit() - 1))
        terms.append((coeff, z))
    wp = policy.fixed_bits + 5
    terms += [
        (Fraction(3, 7), Fraction(-2, 3)),
        (Fraction(-5, 2), INFINITY),
        (Fraction(1, 3), (3 << (wp - 2), -(5 << (wp - 3)), wp)),  # 3/4 - 5i/8
    ]
    got = cl_apply(m, terms, policy)
    with mpmath.workdps(digits + 25):
        ref = mpmath.mpf(0)
        for c, value in terms:
            if value is INFINITY:
                continue
            zz = exact_mpc(value, mpmath.mp)
            lis = [mpmath.polylog(j, zz) for j in range(1, m + 1)]
            term = _cl_oracle(m, lis, mpmath.log(abs(zz)))
            ref += mpmath.mpf(c.numerator) / c.denominator * term
        assert abs(ref) > 1e-3  # a sum that does not vanish
        unit = mpmath.ldexp(1, -policy.prec)
        bound = unit * sum(abs(c) for c, _ in terms) + unit * abs(ref)
        assert abs(to_mp(got) - ref) <= bound


# -- leaving fixed point: rounding, tolerance, decimal strings ------------------


def _bits(rng, n):
    """n random bits from a SplitMix64 stream."""
    out = 0
    for _ in range(0, n, 64):
        out = out << 64 | rng.next_u64()
    return out >> (-n % 64)


def test_rounded_matches_mpmath_division():
    """_rounded(num, scale, prec, den) is mpmath's mpf_div of num 2^-scale by
    den at prec bits, round to nearest: seeded quotients of every size, and
    exact ties, which go to the even neighbour."""
    from mpmath.libmp import from_int, from_man_exp, mpf_div, to_rational

    def reference(num, scale, prec, den):
        return Fraction(*to_rational(mpf_div(from_man_exp(num, -scale), from_int(den), prec, "n")))

    rng = SplitMix64(31)
    for _ in range(3000):
        prec = rng.next_int(2, 400)
        num = _bits(rng, rng.next_int(1, 900)) * (1 if rng.next_unit() < 0.5 else -1)
        den = 1 if rng.next_unit() < 0.3 else _bits(rng, rng.next_int(1, 300)) or 1
        scale = rng.next_int(-500, 500)
        assert numeric._rounded(num, scale, prec, den) == reference(num, scale, prec, den)
    for prec in range(2, 12):
        for num in range(-300, 300):
            for den in (1, 2, 3):
                assert numeric._rounded(num, 0, prec, den) == reference(num, 0, prec, den)


def test_policy_prec_and_tolerance_match_mpmath():
    """prec is mpmath's bits for dps = P + guard digits, and the tolerance its
    mpf 10^(t_slack - P) at that precision, for every P from 10 to 400."""
    from mpmath.libmp import to_rational

    for digits in range(10, 401):
        policy = PrecisionPolicy.for_digits(digits)
        ctx = mpmath.MPContext()
        ctx.dps = policy.working_digits + policy.guard_digits
        assert policy.prec == ctx.prec, digits
        tolerance = ctx.mpf(10) ** (policy.t_slack - policy.working_digits)
        assert policy.tolerance == Fraction(*to_rational(tolerance._mpf_)), digits


def _formatter_cases():
    """(raw mpf, digits) on a seeded grid: digits 10..110 (the command line
    takes P >= 10, and witnesses print P + guard digits), decimal exponents
    -400..400, both signs, exact zero, and values whose leading digit sits at
    either end of the fixed-notation window, min(-(digits // 3), -5) and
    digits, or one place beyond it (9.99..e and 1e, which round across)."""
    from mpmath.libmp import from_man_exp, from_str, fzero, mpf_neg

    rng = SplitMix64(2027)
    for i in range(4000):
        digits = rng.next_int(10, 110)
        prec = PrecisionPolicy.for_digits(digits).prec
        low = min(-(digits // 3), -5)
        if i % 3:
            e = rng.next_int(-400, 400)
            raw = from_man_exp(_bits(rng, prec) | 1, round(e * log2(10)) - prec)
        else:
            e = low + rng.next_int(-1, 1) if rng.next_unit() < 0.5 else digits + rng.next_int(-1, 1)
            nines = "9" * rng.next_int(1, digits + 3)
            text = f"{nines}e{e - len(nines) + 1}" if rng.next_unit() < 0.5 else f"1e{e}"
            raw = from_str(text, prec, "n")
        yield (mpf_neg(raw) if rng.next_unit() < 0.5 else raw), digits
    yield fzero, 15


def test_criterion_10_rounds_each_step_at_prec_bits():
    """Criterion 10 forms 1/z, z^2, -z, conj z and each sum and difference
    as mpmath's mpc and mpf arithmetic at the policy's prec bits does, each
    rounded once to nearest: its m{k}_worst equal the same identities
    computed in mpmath on the kernel's CL_m values."""
    from mpmath.libmp import to_rational

    from polyrel.report import criterion_10_invariants
    from polyrel.verify import sample_complex

    seed = 20260808
    policy = PrecisionPolicy(50)
    ctx = context(policy)

    def cl(m, z):
        return to_mp(cl_m(m, tuple(Fraction(*to_rational(p)) for p in z._mpc_), policy), ctx)

    expected = {}
    for m in range(2, 8):
        rng = SplitMix64(seed).split("inv", m)
        sign = (-1) ** (m - 1)
        worst = ctx.mpf(0)
        for _ in range(50):
            z = ctx.mpc(sample_complex(rng))
            worst = max(
                worst,
                abs(cl(m, z) - sign * cl(m, 1 / z)),
                abs(cl(m, ctx.conj(z)) - sign * cl(m, z)),
                abs(cl(m, z * z) - 2 ** (m - 1) * (cl(m, z) + cl(m, -z))),
            )
        expected[f"m{m}_worst"] = float(worst)
    details = criterion_10_invariants(seed)["details"]
    assert {key: details[key] for key in expected} == expected


def test_decimal_str_matches_mpmath_to_str_and_nstr():
    """decimal_str of a dyadic Fraction is mpmath's to_str of the same mpf,
    and of a Gaussian-rational pair mpmath's nstr of the same mpc, with
    either sign of the imaginary part and exact zero parts among them."""
    from mpmath.libmp import fzero, to_rational, to_str

    cases = list(_formatter_cases())
    exact = lambda raw: Fraction(*to_rational(raw))
    for raw, digits in cases:
        assert numeric.decimal_str(exact(raw), digits) == to_str(raw, digits), (raw, digits)
    ctx = mpmath.MPContext()
    for (re, digits), (im, _) in zip(cases, cases[1:] + [(fzero, 0)]):
        value = ctx.make_mpc((re, im))
        assert numeric.decimal_str((exact(re), exact(im)), digits) == ctx.nstr(value, digits)
    assert numeric.decimal_str(Fraction(0), 30) == "0.0"
    assert numeric.decimal_str((Fraction(1, 2), Fraction(-3, 4)), 15) == "(0.5 - 0.75j)"


# -- fixed-point log --------------------------------------------------------------

_LOG_DIGITS = [30, 50, 60, 120]


def _log_error_units(x, y, wp):
    """(|re - ref|, |im - ref|) of _log_fixed in units of 2^-wp, against
    mpmath's mpc_log 64 bits wider."""
    from mpmath.libmp import from_man_exp, mpc_log, to_fixed

    re, im = numeric._log_fixed(x, y, wp)
    ref = mpc_log((from_man_exp(x, -wp), from_man_exp(y, -wp)), wp + 64)
    return tuple(
        abs((mine << 64) - to_fixed(part, wp + 64)) / 2.0**64
        for mine, part in ((re, ref[0]), (im, ref[1]))
    )


def _assert_log_bound(x, y, wp):
    """The docstring's bound: 0.6 units, or one unit where the imaginary
    part is set to +-1 to keep the sign of y."""
    err_re, err_im = _log_error_units(x, y, wp)
    im = numeric._log_fixed(x, y, wp)[1]
    assert err_re < 0.6 and err_im < (1 if abs(im) == 1 else 0.6), (x, y, wp)


@pytest.mark.parametrize("digits", _LOG_DIGITS)
def test_log_fixed_matches_mpmath(digits):
    """2,000 seeded points per width, |z| from one unit (2^-300 where the
    width reaches it) to 2^300, every argument, some on the axes."""
    import random

    wp = PrecisionPolicy.for_digits(digits).fixed_bits
    rng = random.Random(7000 + digits)
    for i in range(2000):
        bits = max(wp + rng.randint(-300, 300), 1)
        x = rng.randint(-(1 << bits), 1 << bits)
        y = 0 if i % 10 == 0 else rng.randint(-(1 << bits), 1 << bits)
        if i % 10 == 5:
            x = 0
        if x or y:
            _assert_log_bound(x, y, wp)


@pytest.mark.parametrize("digits", _LOG_DIGITS)
def test_log_fixed_edge_cases(digits):
    wp = PrecisionPolicy.for_digits(digits).fixed_bits
    one = 1 << wp
    points = [
        (-one, 0), (-3 * one, 0), (-1, 0),  # the negative axis: +pi
        (-one, 1), (-one, -1), (-3 * one, 1), (-3 * one, -1),  # just off it
        (one, 0), (0, one), (0, -one),  # |z| = 1
    ] + [(one + dx, dy) for dx in (-1, 1) for dy in (-1, 0, 1)]  # one unit from 1
    for x, y in points:
        _assert_log_bound(x, y, wp)
    pi = numeric._log_fixed(-one, 0, wp)[1]
    assert pi > 0 and numeric._log_fixed(-one, 1, wp)[1] == pi - 1
    assert numeric._log_fixed(-one, -1, wp)[1] == -(pi - 1)
    assert numeric._log_fixed(one, 0, wp) == (0, 0)
    # one unit from 1 the log is one unit, never 0: log(-log z) exists
    for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (-1, -1)):
        assert numeric._log_fixed(one + dx, dy, wp) == (dx, dy)
    with pytest.raises(DomainError):
        numeric._log_fixed(0, 0, wp)


@pytest.mark.parametrize("digits", [30, 50, 60])
def test_li_and_cl_one_unit_from_one(digits):
    """At z one unit of the kernel's width from 1, and at 1.5 one unit above
    or below the cut, li_m and cl_m match mpmath's polylog and keep the
    principal branch (the sign of Im z)."""
    policy = PrecisionPolicy.for_digits(digits)
    ctx = context(policy)
    unit = Fraction(1, 1 << policy.fixed_bits)
    points = [(1 + dx * unit, dy * unit) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    points = [z for z in points if z != (1, 0)] + [(Fraction(3, 2), unit), (Fraction(3, 2), -unit)]
    with mpmath.workdps(digits + 20):
        for z in points:
            zz = to_mp(z)
            lis = [mpmath.polylog(j, zz) for j in range(1, 8)]
            logabs = mpmath.log(abs(zz))
            for m in range(2, 8):
                if z[1] or z[0] < 1:
                    _assert_within(li_m(m, z, policy), lis[m - 1], digits, (m, z))
                _assert_within(cl_m(m, z, policy), _cl_oracle(m, lis, logabs), digits, (m, z))
    for sign in (1, -1):
        im = li_m(2, (Fraction(3, 2), sign * unit), policy)[1]
        assert abs(to_mp(im, ctx) - sign * ctx.pi * ctx.log(1.5)) < to_mp(policy.tolerance, ctx)


def _runtime_checks():
    from polyrel.catalog import get_equation
    from polyrel.report import criterion_10_invariants
    from polyrel.verify import verify_fourlog_numeric, verify_numeric

    policy = PrecisionPolicy(40)
    return [
        criterion_10_invariants(3),
        verify_numeric(get_equation("five_term"), points=8, policy=policy, seed=4).to_json(),
        verify_fourlog_numeric(3, points=2, policy=policy, seed=5).to_json(),
    ]


def test_runtime_needs_no_mpmath():
    """Criterion 10's CL_m invariants, the numeric verdict on five_term and
    the weight-4 verdict over certified roots run in a subprocess with
    mpmath blocked, and give the JSON they give in this process."""
    import inspect
    import json
    import os
    import subprocess
    import sys

    code = "\n".join([
        "import json, sys",
        "sys.modules['mpmath'] = None",
        "from polyrel.numeric import PrecisionPolicy",
        inspect.getsource(_runtime_checks),
        "print(json.dumps(_runtime_checks()))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    blocked = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert blocked.returncode == 0, blocked.stderr
    here = json.loads(json.dumps(_runtime_checks()))
    assert json.loads(blocked.stdout) == here
    assert here[0]["passed"] and here[1]["status"] == here[2]["status"] == "pass"


@pytest.mark.parametrize(
    "f, m, z",
    [
        (cl_m, 3, complex(float("inf"), 1)),
        (cl_m, 3, complex(1, float("nan"))),
        (cl_m, 3, float("nan")),
        (li_m, 3, float("nan")),
        (li_m, 2, -1e400),
        (li_m, 2, 1e400j),
        (li_m, 1, 1e400j),
        (cl_m, 3, (float("inf"), 0)),
    ],
)
def test_non_finite_arguments_raise_domain_error(f, m, z):
    """cl_m's point at infinity is INFINITY; an inf or nan part is not a point."""
    with pytest.raises(DomainError, match="finite"):
        f(m, z, POLICY)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_complex((float("inf"), 0)),
        lambda: exact_complex((float("nan"), 1)),
        lambda: exact_complex((1, float("-inf"))),
        lambda: poly_roots([(float("inf"), 0), (1, 0)], POLICY),
    ],
    ids=["inf-re", "nan-re", "inf-im", "poly_roots"],
)
def test_non_finite_pair_part_is_a_domain_error(call):
    """A Gaussian-rational pair with an inf or nan part is not a point, and
    the message names the pair."""
    with pytest.raises(DomainError, match=r"need a finite number, got \("):
        call()


def test_pi_fixed_matches_mpmath():
    """_pi_fixed, the imaginary part of the kernel's own log(-1), is mpmath's
    pi_fixed bit for bit at every width from 16 to 1500 bits."""
    from mpmath.libmp import pi_fixed

    assert [wp for wp in range(16, 1501) if numeric._pi_fixed(wp) != pi_fixed(wp)] == []


def test_cl_and_li_at_a_fresh_width_match_mpmath_polylog():
    """cl_m in all three regions (the power series, the log expansion and the
    inversion fold) and li_m's fold beyond |z| = 2, at a width no other test
    uses, so that the kernel builds its pi and log tables there first: every
    value matches mpmath's polylog 20 digits higher."""
    digits = 47
    policy = PrecisionPolicy(digits)
    # |z| <= 1/2, 1/2 < |z| <= 1, and |z| > 1 folded into either region
    got_cl = [(m, z, cl_m(m, z, policy)) for m in (2, 3, 7) for z in (0.3 + 0.1j, 0.9 - 0.4j, 1.7j, -3 + 0.5j)]
    got_li = [(m, z, li_m(m, z, policy)) for m in (2, 4, 7) for z in (-3 + 0.5j, 2.5j, 1e20 + 1j)]
    with mpmath.workdps(digits + 20):
        for m, z, value in got_cl:
            zz = mpmath.mpc(z)
            lis = [mpmath.polylog(j, zz) for j in range(1, m + 1)]
            _assert_within(value, _cl_oracle(m, lis, mpmath.log(abs(zz))), digits, (m, z))
        for m, z, value in got_li:
            _assert_within(value, mpmath.polylog(m, mpmath.mpc(z)), digits, (m, z))


def _conversion_values(seed, count):
    """(value, its exact mpc parts) for seeded Gaussian-rational pairs,
    complex, float and dyadic Fraction values over 2^-300..2^300, with zero
    parts and negative parts at powers of two among them; the parts are
    built by mpmath alone."""
    from mpmath.libmp import from_float, from_man_exp, fzero

    from mpmath.libmp import to_rational

    rng = SplitMix64(seed)

    def man_exp(bits):
        if rng.next_unit() < 0.2:  # a power of two
            man = 1
        else:  # up to ``bits`` bits, odd or even
            man = (rng.next_u64() << 64 | rng.next_u64()) << 64 | rng.next_u64()
            man = (man >> rng.next_int(192 - bits, 191)) or 1
        return man if rng.next_unit() < 0.5 else -man, rng.next_int(-300, 300)

    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:  # a pair of dyadic Fractions, up to 150 bits a part
            parts = tuple(from_man_exp(*man_exp(150)) for _ in range(2))
            parts = tuple(fzero if rng.next_unit() < 0.1 else p for p in parts)
            out.append((tuple(Fraction(*to_rational(p)) for p in parts), parts))
        elif kind == 1:  # complex
            re, im = (math.ldexp(*man_exp(53)) for _ in range(2))
            im = 0.0 if rng.next_unit() < 0.1 else im
            out.append((complex(re, im), (from_float(re), from_float(im))))
        elif kind == 2:  # float
            x = math.ldexp(*man_exp(53))
            out.append((x, (from_float(x), fzero)))
        else:  # dyadic Fraction
            man, exp = man_exp(120)
            out.append((Fraction(man) * Fraction(2) ** exp, (from_man_exp(man, exp), fzero)))
    return out


def test_fixed_pair_and_width_against_mpmath():
    """fixed_pair floors each part as mpmath's to_fixed does, at any width,
    and _fixed_argument's width from the exact top bit equals the rule read
    from an mpc's exponent fields, fixed_width of the larger exp + bc of the
    nonzero parts; a fixed-point triple and a Root are shifted alike."""
    from mpmath.libmp import to_fixed

    for value, parts in _conversion_values(29, 4000):
        for wp in (7, POLICY.fixed_bits, POLICY.fixed_bits + 333):
            assert numeric.fixed_pair(value, wp) == tuple(to_fixed(p, wp) for p in parts), (value, wp)
        top = max((exp + bc for _, man, exp, bc in parts if man), default=0)
        width = numeric.fixed_width(top, POLICY)
        expected = (*(to_fixed(p, width) for p in parts), width)
        assert numeric._fixed_argument(value, POLICY) == expected, value
        x, y, wp = expected
        for pair in ((x, y, wp), numeric.Root(x, y, wp, 1)):
            assert numeric._fixed_argument(pair, POLICY) == expected
            assert numeric.fixed_pair(pair, wp - 9) == (x >> 9, y >> 9)
            assert numeric.fixed_pair(pair, wp + 9) == (x << 9, y << 9)


def test_exact_complex_reads_pairs_triples_and_roots():
    """A 2-tuple is a Gaussian-rational pair, a 3-tuple or Root the
    fixed-point number (x + iy) / 2^wp; any other tuple is no number."""
    assert numeric.exact_complex((Fraction(1, 3), -2)) == (Fraction(1, 3), -2)
    assert numeric.exact_complex((3, -5, 2)) == (Fraction(3, 4), Fraction(-5, 4))
    assert numeric.exact_complex(numeric.Root(3, -5, 2, 7)) == (Fraction(3, 4), Fraction(-5, 4))
    for value in ((), (1,), (1, 2, 3, 4), (1, 2, 3, 4, 5)):
        with pytest.raises(DomainError, match="not a number"):
            numeric.exact_complex(value)


# -- CL ---------------------------------------------------------------------------

def test_cl2_real_axis_vanishes():
    for q in (Fraction(3, 7), Fraction(-5, 2), Fraction(9, 4)):
        assert abs(cl_m(2, q, POLICY)) < POLICY.tolerance


def test_cl2_at_i_is_catalan():
    catalan = CTX.mpf("0.91596559417721901505460351493238411077414937428167")
    assert close(cl_m(2, 1j, POLICY), catalan, 48)


def test_cl3_at_one_is_zeta3():
    assert close(cl_m(3, 1, POLICY), to_mp(zeta_int(3, POLICY), CTX))


def test_cl_even_at_one_is_zero():
    assert cl_m(4, 1, POLICY) == 0


def test_cl_continuity_values():
    assert cl_m(5, 0, POLICY) == 0
    assert cl_m(6, INFINITY, POLICY) == 0


def test_cl_continuity_by_approach():
    # approach 0, 1, infinity along a ray; values must converge to the
    # assigned constants
    for m in (2, 3):
        target = zeta_int(m, POLICY) if m % 2 else 0
        seq = [cl_m(m, 1 + 10 ** -k * (0.3 + 0.4j), POLICY) for k in (4, 6, 8)]
        assert abs(seq[-1] - target) < 1e-6
        # near 0 and infinity CL_m ~ z log^(m-1)|z|, so loose bounds suffice
        assert abs(cl_m(m, 1e-12 + 1e-13j, POLICY)) < 1e-8
        assert abs(cl_m(m, 1e12 + 1e11j, POLICY)) < 1e-8


def _inverse(z):
    """1/z as an exact Gaussian-rational pair."""
    x, y = exact_complex(z)
    norm = x * x + y * y
    return x / norm, -y / norm


@pytest.mark.parametrize("m", range(2, 8))
def test_cl_inversion_conjugation_distribution(m):
    rng = SplitMix64(1000 + m)
    for _ in range(6):
        z = complex(rng.next_int(-250, 250) / 100, rng.next_int(-250, 250) / 100 or 0.31)
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        sign = (-1) ** (m - 1)
        x, y = exact_complex(z)
        assert abs(cl_m(m, z, POLICY) - sign * cl_m(m, _inverse(z), POLICY)) < POLICY.tolerance
        assert abs(cl_m(m, (x, -y), POLICY) - sign * cl_m(m, z, POLICY)) < POLICY.tolerance
        dist = cl_m(m, (x * x - y * y, 2 * x * y), POLICY) - 2 ** (m - 1) * (
            cl_m(m, z, POLICY) + cl_m(m, (-x, -y), POLICY)
        )
        assert abs(dist) < POLICY.tolerance


def test_cl_two_routes_agree_on_annulus():
    # |z| slightly below vs above 1: inversion route and direct route agree
    for m in (2, 5):
        z = (Fraction("0.999"), Fraction("0.02"))
        a = cl_m(m, z, POLICY)
        b = (-1) ** (m - 1) * cl_m(m, _inverse(z), POLICY)
        assert abs(a - b) < POLICY.tolerance



@pytest.mark.parametrize("digits", [30, 50, 60])
def test_cl_at_minus_one(digits):
    """CL_m(-1) is exactly 0 for even m (Im Li_m(-1) = 0, and the eta
    expansion at v = 0 has no imaginary part), and Li_m(-1) = -eta(m) =
    -(1 - 2^(1-m)) zeta(m) within one ulp for odd m."""
    policy = PrecisionPolicy.for_digits(digits)
    prec = policy.prec
    for m in range(2, 9):
        got = cl_m(m, -1, policy)
        if m % 2 == 0:
            assert got == 0, m
            continue
        with mpmath.workprec(prec + 64):
            ref = -(1 - mpmath.mpf(2) ** (1 - m)) * mpmath.zeta(m)
            ulp = mpmath.mpf(2) ** (mpmath.floor(mpmath.log(abs(ref), 2)) + 1 - prec)
            assert abs(to_mp(got) - ref) <= ulp, m


def _gauss_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@pytest.mark.parametrize("m", range(2, 9))
def test_cl_log_terms_drop_arg_of_minus_w(m):
    """sum_r 2^r B_r / r! L^r w^(m-1-r) / (m-1-r)!, L = Re w, is real for odd m
    and imaginary for even m, in exact Fractions at seeded Gaussian-rational
    w: the log terms of the Li_j that CL_m reads carry arg(-w) only through
    the part CL_m drops, so _li_log_series may take log|w| alone for CL_m."""
    rng = SplitMix64(33 + m)
    for _ in range(25):
        w = tuple(Fraction(rng.next_int(-400, 400), rng.next_int(1, 97)) for _ in range(2))
        if w == (0, 0):
            continue
        total = [Fraction(0), Fraction(0)]
        for r in range(m):
            beta = Fraction(2**r) * bernoulli(r) / factorial(r)
            term = (beta * w[0] ** r / factorial(m - 1 - r), Fraction(0))
            for _ in range(m - 1 - r):
                term = _gauss_mul(term, w)
            total = [total[0] + term[0], total[1] + term[1]]
        assert total[m % 2] == 0, w
        # the kept part does not vanish with it, so the test reads something
        assert total[1 - m % 2] or w[1] == 0 or m == 2, w


def _cl_region(z, policy):
    """The kernel region _cl_fixed evaluates z in: power, log, eta (about -1),
    with a -fold suffix for |z| > 1."""
    x, y, wp = numeric._fixed_argument(z, policy)
    fold = x * x + y * y > 1 << 2 * wp
    if fold:
        z = 1 / z
        x, y, wp = numeric._fixed_argument(z, policy)
    if abs(z) <= 0.5:
        name = "power"
    else:
        name = "eta" if numeric._near_minus_one(x, y, wp) else "log"
    return name + ("-fold" if fold else "")


@pytest.mark.parametrize("digits", [30, 60])
def test_cl_fixed_within_32_units_of_mpmath(digits):
    """Every _cl_fixed value on a seeded grid is within 32 units of
    2^-fixed_bits of CL_m from mpmath's polylog at 110 digits, at the
    argument's exact value, in each kernel region (power series, log
    expansion, eta expansion about -1, and each of them behind the
    inversion fold) for m = 2, 3, 4, 7."""
    policy = PrecisionPolicy.for_digits(digits)
    bits = policy.fixed_bits
    rng = SplitMix64(110 + digits)
    points = [-1, 1j, 0.2 - 0.3j, Fraction(-3, 4), Fraction(5, 3), -2.5 + 0.1j]
    for _ in range(24):
        radius = 0.1 + 2.8 * rng.next_unit()
        points.append(cmath.rect(radius, cmath.pi * (2 * rng.next_unit() - 1)))
    for _ in range(8):  # about -1, on both sides of the unit circle
        angle = cmath.pi * (0.7 + 0.6 * rng.next_unit())
        points.append(cmath.rect(0.6 + 0.9 * rng.next_unit(), angle))
    regions = set()
    worst = 0
    with mpmath.workdps(110):
        for z in points:
            regions.add(_cl_region(z, policy))
            zz = exact_mpc(z, mpmath.mp)
            lis = [mpmath.polylog(j, zz) for j in range(1, 8)]
            logabs = mpmath.log(abs(zz))
            for m in (2, 3, 4, 7):
                t, scale = numeric._cl_fixed(m, z, policy)
                err = abs(mpmath.ldexp(t, -scale) - _cl_oracle(m, lis, logabs))
                err *= mpmath.ldexp(1, bits)
                assert err <= 32, (m, z, float(err))
                worst = max(worst, err)
    assert regions == {f"{r}{f}" for r in ("power", "log", "eta") for f in ("", "-fold")}
    assert worst > 0

@pytest.mark.parametrize(
    "digits, guard, slack",
    [(10, 2, 7), (30, 7, 15), (50, 10, 15), (60, 10, 15), (200, 10, 15)],
)
def test_for_digits_pins_guard_and_slack(digits, guard, slack):
    p = PrecisionPolicy.for_digits(digits)
    assert (p.working_digits, p.guard_digits, p.t_slack) == (digits, guard, slack)


def test_for_digits_keeps_precision_above_guard_plus_slack():
    for digits in range(10, 401):
        p = PrecisionPolicy.for_digits(digits)
        assert p.working_digits > p.guard_digits + p.t_slack
    for digits in range(10):
        with pytest.raises(DomainError):
            PrecisionPolicy.for_digits(digits)


def test_precision_scaling():
    hi = PrecisionPolicy(70)
    z = 0.37 + 0.58j
    for m in (2, 4, 7):
        a = cl_m(m, z, POLICY)
        b = cl_m(m, z, hi)
        assert abs(a - b) < Fraction(1, 10 ** (POLICY.working_digits - POLICY.guard_digits))


def test_cl_apply_five_term():
    # x = 2 + i, y = 1 - 2i: every argument is exact in binary
    terms = [
        (Fraction(1), 4 - 3j),  # x y
        (Fraction(-1), 2 + 1j),
        (Fraction(-1), 1 - 2j),
        (Fraction(-1), -0.5 - 1.5j),  # (1 - x) / (1 - 1/y)
        (Fraction(-1), 1 + 3j),  # (1 - y) / (1 - 1/x)
    ]
    assert abs(cl_apply(2, terms, POLICY)) < POLICY.tolerance


def test_cl_apply_inversion_combination():
    z = 2 + 1j
    terms = [(Fraction(1), z), (Fraction(1), _inverse(z)), (Fraction(-2), z)]
    assert abs(cl_apply(3, terms, POLICY)) < POLICY.tolerance


def test_cl_apply_conjugation_pair():
    z = 2 + 1j
    terms = [(Fraction(1), z.conjugate()), (Fraction(1), z)]
    assert abs(cl_apply(2, terms, POLICY)) < POLICY.tolerance


# -- roots -------------------------------------------------------------------------

def test_roots_quadratic():
    roots = poly_roots([-1, 0, 1], POLICY)  # x^2 - 1
    roots = [numeric.from_fixed_pair(*r.pair, POLICY.prec) for r in roots]
    assert len(roots) == 2
    assert close(roots[0], CTX.mpc(-1), 45) and close(roots[1], CTX.mpc(1), 45)


def test_roots_phi_preimage_quadratic():
    # x^2 - x - t at t = 3/4 has roots 3/2, -1/2
    roots = poly_roots([Fraction(-3, 4), Fraction(-1), Fraction(1)], POLICY)
    roots = [numeric.from_fixed_pair(*r.pair, POLICY.prec) for r in roots]
    assert close(roots[0], exact_mpc(Fraction(-1, 2)), 45)
    assert close(roots[1], exact_mpc(Fraction(3, 2)), 45)


def test_roots_multiplicity():
    roots = poly_roots([4, -4, 1], POLICY)  # (x-2)^2
    assert len(roots) == 2
    assert roots[0] == roots[1]
    assert close(numeric.from_fixed_pair(*roots[0].pair, POLICY.prec), CTX.mpc(2), 20)


def test_roots_triple_root_keeps_mpmath_start():
    """(x-1)^3: float Durand-Kerner stalls on the triple root, so it gives no
    seeds and the fixed-point sweeps start from its start (0.4 + 0.9i)^k;
    at P = 15 the certificate returns one cluster of three."""
    assert numeric._float_roots([1, -3, 3, -1]) is None
    policy = PrecisionPolicy.for_digits(15)
    roots = poly_roots([-1, 3, -3, 1], policy)
    assert len(roots) == 3 and roots[0] == roots[1] == roots[2]
    assert abs(to_mp(numeric.from_fixed_pair(*roots[0].pair, policy.prec)) - 1) < 1e-5


def test_roots_beyond_float_range_are_certified():
    """x^2 + 10^400: 10^400 is inf as a float, so there are no seeds; the
    start scaled to radius 2^round(log2(10^400) / 2) reaches ±10^200 i, and
    each certified disk contains one of them (checked in exact ints)."""
    coeffs = [Fraction(10) ** 400, 0, 1]
    assert numeric._float_roots([exact_mpc(c) for c in reversed(coeffs)]) is None
    roots = poly_roots(coeffs, POLICY)
    assert len(roots) == 2
    for root, sign in zip(roots, (-1, 1)):  # sorted by (re, im)
        center = sign * 10**200 << root.wp
        assert root.x**2 + (root.y - center) ** 2 <= root.radius**2


def test_roots_far_below_the_grid_form_one_cluster():
    """x^2 + 10^-400: the start is scaled down only to 2^(-wp/2), where its
    points are still apart on the grid, and both roots (±10^-200 i, far
    below 2^-wp) come back as one certified cluster at 0."""
    roots = poly_roots([Fraction(10) ** -400, 0, 1], POLICY)
    assert len(roots) == 2 and roots[0] == roots[1]
    assert (roots[0].x, roots[0].y) == (0, 0) and roots[0].radius >= 1


def _sweeps(monkeypatch, coeffs, policy):
    """The number of Weierstrass sweeps poly_roots runs on coeffs: each
    sweep reads the monic coefficients once per root."""
    reads = []

    class Counted(list):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    sweeps = numeric._weierstrass_sweeps
    with monkeypatch.context() as m:
        m.setattr(numeric, "_weierstrass_sweeps", lambda a, z, wp: sweeps(Counted(a), z, wp))
        roots = poly_roots(coeffs, policy)
    return len(reads) // len(roots), policy.fixed_bits + numeric._ROOT_GUARD_BITS


def test_roots_multiple_root_stops_when_steps_stall(monkeypatch):
    """(x-1)^4 at P = 60: the steps settle near 2^(-wp/4) and stop
    shrinking there, which ends the sweeps well before the cap of wp; a
    simple quartic stops on the step rule after a handful of sweeps."""
    policy = PrecisionPolicy.for_digits(60)
    sweeps, cap = _sweeps(monkeypatch, [1, -4, 6, -4, 1], policy)
    assert cap == 280 and sweeps <= cap // 2
    sweeps, _ = _sweeps(monkeypatch, [24, -50, 35, -10, 1], policy)
    assert sweeps <= 8


@pytest.mark.parametrize("bad", [complex(0, float("inf")), float("nan"), CTX.mpf("-inf")])
def test_roots_of_non_finite_coefficients_raise_domain_error(bad):
    with pytest.raises(DomainError, match="finite"):
        poly_roots([bad, 1], POLICY)


def within_radius(root, refs):
    """Some reference root lies inside the root's certified radius."""
    bound = mpmath.ldexp(root.radius, -root.wp)
    value = mpmath.mpc(mpmath.ldexp(root.x, -root.wp), mpmath.ldexp(root.y, -root.wp))
    return min(abs(value - ref) for ref in refs) <= bound


@pytest.mark.parametrize("n", range(2, 9))
def test_roots_of_fourlog_polynomials_match_mpmath(n):
    """z^n - z^(n-1) - t at 30 seeded t: mpmath's polyroots 20 digits higher
    from its own start puts a root inside each certified radius, and every
    radius is a few units of 2^-fixed_bits."""
    rng = SplitMix64(4400 + n)
    for _ in range(30):
        t = complex(rng.next_int(-300, 300) / 100, rng.next_int(-300, 300) / 100)
        coeffs = [-t] + [0] * (n - 2) + [-1, 1]
        assert numeric._float_roots([exact_mpc(c) for c in reversed(coeffs)])
        roots = poly_roots(coeffs, POLICY)
        assert len(roots) == n and len(set(roots)) == n
        with mpmath.workdps(CTX.dps + 20):
            refs = mpmath.polyroots([1, -1] + [0] * (n - 2) + [-mpmath.mpc(t)], maxsteps=200)
            for r in roots:
                assert r.wp == POLICY.fixed_bits and r.radius <= 16, (n, t, r)
                assert within_radius(r, refs), (n, t)


def test_roots_of_random_phi_preimages_match_mpmath():
    """phi(z) - w for 40 random_phi cubics and sampled w: mpmath's roots
    20 digits higher lie inside each certified radius."""
    from polyrel.verify import _phi_variable, _univariate_coeffs, random_phi, sample_complex

    rng = SplitMix64(4500)
    for i in range(40):
        phi = random_phi(rng.split("phi", i))
        coeffs = _univariate_coeffs(phi.num, _phi_variable(phi)[0])
        w = sample_complex(rng)
        wr, wi = numeric.exact_complex(w)
        roots = poly_roots([(coeffs[0] - wr, -wi)] + [(c, 0) for c in coeffs[1:]], POLICY)
        with mpmath.workdps(CTX.dps + 20):
            refs = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs[1:])]
                + [coeffs[0] - mpmath.mpc(w)],
                maxsteps=200,
            )
            assert all(within_radius(r, refs) for r in roots), (i, w)


@pytest.mark.parametrize("digits", [15, 30, 60])
@pytest.mark.parametrize("coeffs, k", [([-1, 3, -3, 1], 3), ([1, -4, 6, -4, 1], 4)])
def test_roots_multiple_root_is_one_certified_cluster(coeffs, k, digits):
    """(x-1)^3 and (x-1)^4: one cluster of multiplicity k whose certified
    radius contains 1."""
    policy = PrecisionPolicy.for_digits(digits)
    roots = poly_roots(coeffs, policy)
    assert len(roots) == k and len(set(roots)) == 1
    r = roots[0]
    assert (r.x - (1 << r.wp)) ** 2 + r.y**2 <= r.radius**2


def test_certificate_rejects_shifted_and_doubled_roots():
    """(x-1)(x-2)(x-3) from the exact roots at wp bits: certified as three
    simple roots; one root shifted by 2^-40, or two copies of one simple root
    (equal, or 2^-40 apart), is not."""
    policy = PrecisionPolicy.for_digits(30)
    wp = policy.fixed_bits + numeric._ROOT_GUARD_BITS
    coeffs = [(c, 0) for c in (-6, 11, -6, 1)]
    exact = [(k << wp, 0) for k in (1, 2, 3)]
    roots = numeric._certify(coeffs, exact, wp, policy)
    assert [(r.x, r.y, r.radius) for r in roots] == [(k << policy.fixed_bits, 0, 2) for k in (1, 2, 3)]
    shift = 1 << (wp - 40)
    for z in (
        [exact[0], exact[1], (exact[2][0] + shift, 0)],
        [exact[0], exact[1], (exact[2][0], shift)],
        [exact[0], exact[0], exact[2]],
        [exact[0], (exact[0][0] + shift, 0), exact[2]],
    ):
        with pytest.raises(numeric.RootFindingError):
            numeric._certify(coeffs, z, wp, policy)


def test_roots_sum_product_invariant():
    rng = SplitMix64(17)
    for _ in range(5):
        coeffs = [Fraction(rng.next_int(-9, 9) or 1) for _ in range(5)]
        roots = poly_roots(coeffs, POLICY)
        roots = [to_mp(numeric.from_fixed_pair(*r.pair, POLICY.prec), CTX) for r in roots]
        total = sum(roots, CTX.mpc(0))
        prod = CTX.mpc(1)
        for r in roots:
            prod *= r
        d = len(coeffs) - 1
        assert abs(total + exact_mpc(coeffs[d - 1] / coeffs[d])) < TOLERANCE
        expected = (-1) ** d * exact_mpc(coeffs[0] / coeffs[d])
        assert abs(prod - expected) < TOLERANCE


def test_roots_rejects_degenerate_input():
    with pytest.raises(DomainError):
        poly_roots([3], POLICY)
    with pytest.raises(DomainError):
        poly_roots([1, 0, 0], POLICY)  # zero leading coefficients stripped


# -- numeric verdict margins --------------------------------------------------


@pytest.mark.parametrize("name, points", [("xi7_explicit", 3), ("fourlog_n4", 2)])
def test_numeric_verdicts_keep_fifteen_digits_of_margin(name, points):
    """At P = 60 the weight-7 and weight-4 sums vanish at least 15 digits
    below the tolerance 10^-45."""
    from polyrel.catalog import get_equation
    from polyrel.verify import verify_numeric

    policy = PrecisionPolicy.for_digits(60)
    verdict = verify_numeric(get_equation(name), points=points, policy=policy, seed=0)
    assert verdict.passed
    assert verdict.trials["max_abs_value"] <= float(policy.tolerance) * 1e-15


def test_xi7_sum_keeps_twenty_five_digits_of_margin():
    """Summed in ints and rounded once, the weight-7 sum vanishes at P = 60
    at least 25 digits below the tolerance 10^-45 (about 30 at seed 0)."""
    from polyrel.catalog import get_equation
    from polyrel.verify import verify_numeric

    policy = PrecisionPolicy.for_digits(60)
    verdict = verify_numeric(get_equation("xi7_explicit"), points=3, policy=policy, seed=0)
    assert verdict.passed
    assert verdict.trials["max_abs_value"] <= float(policy.tolerance) * 1e-25
