import cmath
import math
from fractions import Fraction
from math import factorial, isqrt, log2

import mpmath
import pytest

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
CTX = POLICY.context


def close(a, b, digits=45):
    return abs(a - b) < CTX.mpf(10) ** (-digits)


def exact_mpc(value, ctx=CTX):
    """The mpc of a number's exact value (numeric.exact_complex), rounded to
    the context ``ctx``."""
    return ctx.mpc(*(ctx.mpf(q.numerator) / q.denominator for q in numeric.exact_complex(value)))


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
    context precision (within one unit in its last place, 2^(1-prec) for
    1 < zeta(k) < 2)."""
    policy = PrecisionPolicy.for_digits(digits)
    prec, wp = policy.context.prec, policy.fixed_bits
    # the table reads zeta(2) .. zeta(k_max - 1)
    k_max = numeric._terms(wp, log2(numeric._U_MAX), numeric._COEFF_BITS + 2)
    with mpmath.workprec(wp + 64):
        for k in range(2, k_max):
            ref = mpmath.zeta(k)
            assert abs(numeric._zeta_fixed(k, wp) - ref * 2 ** wp) <= 2, k
            assert abs(mpmath.mpf(zeta_int(k, policy)) - ref) * 2 ** (prec - 1) <= 1, k


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
            mine = li_m(m, z, POLICY)
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
    assert abs(mpmath.mpmathify(mine) - ref) < bound, where


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
                err = abs(mpmath.mpmathify(li_m(m, z, policy)) - ref)
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
            err = abs(mpmath.mpmathify(li_m(1, z, policy)) - ref)
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
            expected = numeric.from_fixed_pair(re, im, wp, CTX)
            assert li_m(m, z, POLICY) == expected, (m, z)
            if near:
                re, im = (numeric._li_all(m, x, y, wp, part)[0][m] for part in (0, 1))
                assert li_m(m, z, POLICY) == numeric.from_fixed_pair(re, im, wp, CTX), (m, z)
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
    _CL_EXTRA_BITS and rounded once."""
    from mpmath.libmp import from_man_exp

    ctx = policy.context
    if z == 0:
        return ctx.mpf(0)
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
        return zeta_int(m, policy) if m % 2 else ctx.mpf(0)
    values, log_abs = _full_chain(m, x, y, wp, 1 - m % 2)
    total, power = 0, one
    for r in range(m):
        if r:
            power = power * log_abs >> wp
        b = bernoulli(r)
        if b:
            weight = (b.numerator << (base + r)) // (b.denominator * factorial(r))
            total += ((weight << (wp - base)) * power >> wp) * values[m - r - 1]
    return ctx.make_mpf(from_man_exp(sign * total, -2 * wp, ctx.prec, "n"))


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
    ctx = policy.context
    rng = SplitMix64(1000 * m + digits)
    terms = []
    for _ in range(12):
        coeff = Fraction(rng.next_int(-9, 9) or 1, rng.next_int(1, 7))
        z = cmath.rect(10 ** (-1.5 + 3 * rng.next_unit()), cmath.pi * (2 * rng.next_unit() - 1))
        terms.append((coeff, ctx.mpc(z)))
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
        unit = mpmath.ldexp(1, -ctx.prec)
        bound = unit * sum(abs(c) for c, _ in terms) + unit * abs(ref)
        assert abs(mpmath.mpf(got) - ref) <= bound


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
    ctx = policy.context
    unit = ctx.ldexp(1, -policy.fixed_bits)
    points = [ctx.mpc(1 + dx * unit, dy * unit) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    points = [z for z in points if z != 1] + [ctx.mpc(1.5, unit), ctx.mpc(1.5, -unit)]
    with mpmath.workdps(digits + 20):
        for z in points:
            zz = mpmath.mpc(z)
            lis = [mpmath.polylog(j, zz) for j in range(1, 8)]
            logabs = mpmath.log(abs(zz))
            for m in range(2, 8):
                if z.imag or z.real < 1:
                    _assert_within(li_m(m, z, policy), lis[m - 1], digits, (m, z))
                _assert_within(cl_m(m, z, policy), _cl_oracle(m, lis, logabs), digits, (m, z))
    for sign in (1, -1):
        im = li_m(2, ctx.mpc(1.5, sign * unit), policy).imag
        assert abs(im - sign * ctx.pi * ctx.log(1.5)) < policy.tolerance


def test_kernel_takes_no_mpmath_log(monkeypatch):
    """cl_m (both kernel branches, and the fold) and li_m (m = 1, and every
    region up to the inversion beyond |z| = 2) run without mpmath's logs,
    whether reached through mpmath.libmp or through the policy's context."""
    import mpmath.libmp

    points = (0.3 + 0.1j, 1e-30j, 0.9 - 0.4j, -1, 1.7j, -3 + 0.5j, 1e20 + 1j, -1e40)
    calls = [(cl_m, 4), (li_m, 1), (li_m, 4), (li_m, 7)]
    expected = [f(m, z, POLICY) for f, m in calls for z in points]

    def forbidden(*args):
        raise AssertionError("mpmath log called")

    monkeypatch.setattr(mpmath.libmp, "mpc_log", forbidden)
    monkeypatch.setattr(mpmath.libmp, "mpf_log", forbidden)
    monkeypatch.setattr(POLICY.context, "log", forbidden)
    assert [f(m, z, POLICY) for f, m in calls for z in points] == expected


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


def test_kernel_takes_no_mpmath_pi(monkeypatch):
    """cl_m in all three regions (the power series, the log expansion and the
    inversion fold) and li_m's fold beyond |z| = 2 take pi from the kernel's
    own log, not from mpmath.libmp.pi_fixed; at a width no other test uses,
    so no table is cached yet, every value matches mpmath's polylog 20 digits
    higher."""
    import mpmath.libmp

    def forbidden(*args):
        raise AssertionError("mpmath pi_fixed called")

    digits = 47
    policy = PrecisionPolicy(digits)
    monkeypatch.setattr(mpmath.libmp, "pi_fixed", forbidden)
    # |z| <= 1/2, 1/2 < |z| <= 1, and |z| > 1 folded into either region
    got_cl = [(m, z, cl_m(m, z, policy)) for m in (2, 3, 7) for z in (0.3 + 0.1j, 0.9 - 0.4j, 1.7j, -3 + 0.5j)]
    got_li = [(m, z, li_m(m, z, policy)) for m in (2, 4, 7) for z in (-3 + 0.5j, 2.5j, 1e20 + 1j)]
    monkeypatch.undo()
    with mpmath.workdps(digits + 20):
        for m, z, value in got_cl:
            zz = mpmath.mpc(z)
            lis = [mpmath.polylog(j, zz) for j in range(1, m + 1)]
            _assert_within(value, _cl_oracle(m, lis, mpmath.log(abs(zz))), digits, (m, z))
        for m, z, value in got_li:
            _assert_within(value, mpmath.polylog(m, mpmath.mpc(z)), digits, (m, z))


def _conversion_values(seed, count):
    """(value, its exact mpc parts) for seeded mpc, complex, float and dyadic
    Fraction values over 2^-300..2^300, with zero parts and negative parts at
    powers of two among them; the parts are built by mpmath alone."""
    from mpmath.libmp import from_float, from_man_exp, fzero

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
        if kind == 0:  # mpc, up to 150 bits a part
            parts = tuple(from_man_exp(*man_exp(150)) for _ in range(2))
            parts = tuple(fzero if rng.next_unit() < 0.1 else p for p in parts)
            out.append((CTX.make_mpc(parts), parts))
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
    assert close(cl_m(3, 1, POLICY), zeta_int(3, POLICY))


def test_cl_even_at_one_is_zero():
    assert cl_m(4, 1, POLICY) == 0


def test_cl_continuity_values():
    assert cl_m(5, 0, POLICY) == 0
    assert cl_m(6, INFINITY, POLICY) == 0


def test_cl_continuity_by_approach():
    # approach 0, 1, infinity along a ray; values must converge to the
    # assigned constants
    for m in (2, 3):
        target = zeta_int(m, POLICY) if m % 2 else CTX.mpf(0)
        seq = [cl_m(m, 1 + 10 ** -k * (0.3 + 0.4j), POLICY) for k in (4, 6, 8)]
        assert abs(seq[-1] - target) < 1e-6
        # near 0 and infinity CL_m ~ z log^(m-1)|z|, so loose bounds suffice
        assert abs(cl_m(m, 1e-12 + 1e-13j, POLICY)) < 1e-8
        assert abs(cl_m(m, 1e12 + 1e11j, POLICY)) < 1e-8


@pytest.mark.parametrize("m", range(2, 8))
def test_cl_inversion_conjugation_distribution(m):
    rng = SplitMix64(1000 + m)
    for _ in range(6):
        z = CTX.mpc(rng.next_int(-250, 250) / 100, rng.next_int(-250, 250) / 100 or 0.31)
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        sign = (-1) ** (m - 1)
        assert abs(cl_m(m, z, POLICY) - sign * cl_m(m, 1 / z, POLICY)) < POLICY.tolerance
        assert abs(cl_m(m, CTX.conj(z), POLICY) - sign * cl_m(m, z, POLICY)) < POLICY.tolerance
        dist = cl_m(m, z * z, POLICY) - 2 ** (m - 1) * (
            cl_m(m, z, POLICY) + cl_m(m, -z, POLICY)
        )
        assert abs(dist) < POLICY.tolerance


def test_cl_two_routes_agree_on_annulus():
    # |z| slightly below vs above 1: inversion route and direct route agree
    for m in (2, 5):
        z = CTX.mpc("0.999", "0.02")
        a = cl_m(m, z, POLICY)
        b = (-1) ** (m - 1) * cl_m(m, 1 / z, POLICY)
        assert abs(a - b) < POLICY.tolerance



@pytest.mark.parametrize("digits", [30, 50, 60])
def test_cl_at_minus_one(digits):
    """CL_m(-1) is exactly 0 for even m (Im Li_m(-1) = 0, and the eta
    expansion at v = 0 has no imaginary part), and Li_m(-1) = -eta(m) =
    -(1 - 2^(1-m)) zeta(m) within one ulp for odd m."""
    policy = PrecisionPolicy.for_digits(digits)
    prec = policy.context.prec
    for m in range(2, 9):
        got = cl_m(m, -1, policy)
        if m % 2 == 0:
            assert got == 0, m
            continue
        with mpmath.workprec(prec + 64):
            ref = -(1 - mpmath.mpf(2) ** (1 - m)) * mpmath.zeta(m)
            ulp = mpmath.mpf(2) ** (mpmath.floor(mpmath.log(abs(ref), 2)) + 1 - prec)
            assert abs(mpmath.mpf(got) - ref) <= ulp, m


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
        assert abs(a - hi.context.mpf(mpmath.nstr(b, 75))) < CTX.mpf(10) ** (
            -POLICY.working_digits + POLICY.guard_digits
        )


def test_cl_apply_five_term():
    x, y = CTX.mpc(2, 1), CTX.mpc(1, -2)
    terms = [
        (Fraction(1), x * y),
        (Fraction(-1), x),
        (Fraction(-1), y),
        (Fraction(-1), (1 - x) / (1 - 1 / y)),
        (Fraction(-1), (1 - y) / (1 - 1 / x)),
    ]
    assert abs(cl_apply(2, terms, POLICY)) < POLICY.tolerance


def test_cl_apply_inversion_combination():
    z = CTX.mpc(2, 1)
    terms = [(Fraction(1), z), (Fraction(1), 1 / z), (Fraction(-2), z)]
    assert abs(cl_apply(3, terms, POLICY)) < POLICY.tolerance


def test_cl_apply_conjugation_pair():
    z = CTX.mpc(2, 1)
    terms = [(Fraction(1), CTX.conj(z)), (Fraction(1), z)]
    assert abs(cl_apply(2, terms, POLICY)) < POLICY.tolerance


# -- roots -------------------------------------------------------------------------

def test_roots_quadratic():
    roots = poly_roots([-1, 0, 1], POLICY)  # x^2 - 1
    roots = [numeric.from_fixed_pair(*r.pair, CTX) for r in roots]
    assert len(roots) == 2
    assert close(roots[0], CTX.mpc(-1), 45) and close(roots[1], CTX.mpc(1), 45)


def test_roots_phi_preimage_quadratic():
    # x^2 - x - t at t = 3/4 has roots 3/2, -1/2
    roots = poly_roots([Fraction(-3, 4), Fraction(-1), Fraction(1)], POLICY)
    roots = [numeric.from_fixed_pair(*r.pair, CTX) for r in roots]
    assert close(roots[0], exact_mpc(Fraction(-1, 2)), 45)
    assert close(roots[1], exact_mpc(Fraction(3, 2)), 45)


def test_roots_multiplicity():
    roots = poly_roots([4, -4, 1], POLICY)  # (x-2)^2
    assert len(roots) == 2
    assert roots[0] == roots[1]
    assert close(numeric.from_fixed_pair(*roots[0].pair, CTX), CTX.mpc(2), 20)


def test_roots_triple_root_keeps_mpmath_start():
    """(x-1)^3: float Durand-Kerner stalls on the triple root, so it gives no
    seeds and the fixed-point sweeps start from its start (0.4 + 0.9i)^k;
    at P = 15 the certificate returns one cluster of three."""
    assert numeric._float_roots([1, -3, 3, -1]) is None
    policy = PrecisionPolicy.for_digits(15)
    roots = poly_roots([-1, 3, -3, 1], policy)
    assert len(roots) == 3 and roots[0] == roots[1] == roots[2]
    assert abs(numeric.from_fixed_pair(*roots[0].pair, policy.context) - 1) < 1e-5


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
        w = sample_complex(rng, CTX)
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
        roots = [numeric.from_fixed_pair(*r.pair, CTX) for r in poly_roots(coeffs, POLICY)]
        total = sum(roots, CTX.mpc(0))
        prod = CTX.mpc(1)
        for r in roots:
            prod *= r
        d = len(coeffs) - 1
        assert abs(total + exact_mpc(coeffs[d - 1] / coeffs[d])) < POLICY.tolerance
        expected = (-1) ** d * exact_mpc(coeffs[0] / coeffs[d])
        assert abs(prod - expected) < POLICY.tolerance


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
