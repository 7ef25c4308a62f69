from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyrel.exact as exact
from polyrel.exact import (
    DomainError,
    SampleSpaceExhausted,
    SplitMix64,
    factor_int,
    factor_rational,
    random_rational,
)


def test_factor_negative_fraction():
    f = factor_rational(Fraction(-8, 9))
    assert f.sign == -1
    assert f.factors == {2: 3, 3: -2}


def test_factor_one_is_empty_product():
    f = factor_rational(Fraction(1))
    assert f.sign == 1
    assert f.factors == {}


def test_factor_84_over_5():
    f = factor_rational(Fraction(84, 5))
    assert f.sign == 1
    assert f.factors == {2: 2, 3: 1, 7: 1, 5: -1}


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor_rational(Fraction(0))


def test_factor_large_semiprime():
    # 1e12-scale inputs must factor quickly (trial division + rho)
    n = 999983 * 999979
    f = factor_rational(Fraction(n))
    assert f.factors == {999979: 1, 999983: 1}


def test_factor_int_large_prime_cofactor():
    # the cofactor 2^61 - 1 (a Mersenne prime) is left after trial division
    # and must be recognized as prime, not split
    n = 3 * 7 * (2 ** 61 - 1)
    assert factor_int(n) == {3: 1, 7: 1, 2 ** 61 - 1: 1}


def test_factor_int_semiprime_above_trial_limit(monkeypatch):
    # both primes exceed the trial bound (2^10), so only Brent rho splits n;
    # its generator is built on that path only
    import polyrel.exact as exact

    built = []

    class Counting(exact.SplitMix64):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(exact, "SplitMix64", Counting)
    n = 100003 * 100019
    exact._factor_cache.pop(n, None)
    assert factor_int(n) == {100003: 1, 100019: 1}  # cold cache
    assert built
    built.clear()
    assert factor_int(n) == {100003: 1, 100019: 1}  # cached repeat
    smooth = 2 ** 5 * 3 ** 4 * 99991  # 99991 < 2^20: prime once trial division ends
    exact._factor_cache.pop(smooth, None)
    assert factor_int(smooth) == {2: 5, 3: 4, 99991: 1}
    assert built == []


def _assert_factors_like_sympy(n):
    import sympy

    got = factor_int(n)
    assert got == sympy.factorint(n), n
    assert list(got) == sorted(got)
    product = 1
    for p, e in got.items():
        product *= p**e
    assert product == n


def test_factor_int_matches_sympy_on_random_integers():
    # 300 integers of 1 to 90 bits, uniform in each bit length
    rng = SplitMix64(2701)
    for _ in range(300):
        bits = rng.next_int(1, 90)
        wide = rng.next_u64() << 64 | rng.next_u64()
        _assert_factors_like_sympy(wide >> (128 - bits) | 1 << (bits - 1))


@pytest.mark.parametrize("p", [2, 3, 1021, 1031, 65537, 1000003, 2**31 - 1])
def test_factor_int_matches_sympy_on_prime_powers(p):
    # 1031 and above lie beyond the trial bound: their powers go to rho
    for e in range(1, 7):
        _assert_factors_like_sympy(p**e)


@pytest.mark.parametrize(
    "primes",
    [
        (1031, 1033),
        (1031, 1031),
        (1031, 1033, 1039),
        (65537, 1000003),
        (1000003, 1000033, 1000037),
        (100003, 2**61 - 1),
        (2**31 - 1, 2**31 - 1, 1031),
    ],
)
def test_factor_int_matches_sympy_on_products_above_the_trial_bound(primes):
    # no factor below 2^10, and every product exceeds 2^20, so each is
    # split by Brent rho; the wider ones exceed 2^64, past SplitMix64's
    # single-draw range
    n = 1
    for p in primes:
        n *= p
    exact._factor_cache.pop(n, None)
    _assert_factors_like_sympy(n)


@pytest.mark.parametrize("n", [0, -1, (1 << 64) + 1])
def test_next_below_rejects_bounds_outside_one_draw(n):
    with pytest.raises(ValueError):
        SplitMix64(1).next_below(n)
    with pytest.raises(ValueError):
        SplitMix64(1).ints(0, n - 1, 1)


def test_factor_int_returns_a_copy_of_the_cache():
    n = 2 ** 3 * 3 * 1000003
    first = factor_int(n)
    first[2] = 99
    first[17] = 1
    assert factor_int(n) == {2: 3, 3: 1, 1000003: 1}
    second = factor_int(n)
    second.clear()
    assert factor_int(n) == {2: 3, 3: 1, 1000003: 1}


nonzero_rationals = st.fractions(
    min_value=Fraction(-10**5), max_value=Fraction(10**5), max_denominator=10**4
).filter(lambda q: q != 0)


@given(nonzero_rationals)
@settings(max_examples=60, deadline=None)
def test_factor_reconstructs_exactly(q):
    assert factor_rational(q).reconstruct() == q


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=40, deadline=None)
def test_factor_multiplicativity(a, b):
    fa, fb, fab = factor_rational(a), factor_rational(b), factor_rational(a * b)
    merged = dict(fa.factors)
    for p, e in fb.factors.items():
        merged[p] = merged.get(p, 0) + e
    merged = {p: e for p, e in merged.items() if e != 0}
    assert fab.factors == merged
    assert fab.sign == fa.sign * fb.sign


def test_random_rational_contract():
    rng = SplitMix64(1)
    q = random_rational(10, rng)
    assert abs(q.numerator) <= 10 and q.denominator <= 10
    assert q not in (0, 1)


def test_random_rational_determinism():
    seq1 = [random_rational(10, rng) for rng in [SplitMix64(7)] for _ in range(20)]
    seq2 = [random_rational(10, rng) for rng in [SplitMix64(7)] for _ in range(20)]
    assert seq1 == seq2


def test_random_rational_respects_exclusions():
    rng = SplitMix64(3)
    excl = {Fraction(1, 2)}
    for _ in range(50):
        assert random_rational(2, rng, excl) != Fraction(1, 2)


def test_random_rational_exhaustion():
    every = {
        Fraction(n, d) for n in range(-2, 3) for d in (1, 2)
    }
    with pytest.raises(SampleSpaceExhausted):
        random_rational(2, SplitMix64(5), every)


def test_split_streams_are_independent_of_parent_state():
    parent = SplitMix64(42)
    child_a = parent.split("task", 0)
    parent.next_u64()
    child_b = parent.split("task", 0)
    assert child_a.next_u64() == child_b.next_u64()


def test_split_streams_differ_by_tag():
    parent = SplitMix64(42)
    assert parent.split("a").next_u64() != parent.split("b").next_u64()


def _draws_used(rng: SplitMix64) -> int:
    """How many u64 draws the stream has consumed since its seed."""
    return (rng._state - rng.seed) * pow(0x9E3779B97F4A7C15, -1, 1 << 64) % (1 << 64)


@pytest.mark.parametrize("lo, hi", [(-3, 3), (0, 0), (-(10 ** 6), 10 ** 6), (0, 1 << 63)])
def test_ints_matches_next_int_draws(lo, hi):
    a, b = SplitMix64(77), SplitMix64(77)
    assert a.ints(lo, hi, 40) == [b.next_int(lo, hi) for _ in range(40)]
    assert a._state == b._state
    assert a.ints(lo, hi, 0) == [] and a._state == b._state
    if hi - lo + 1 > 1 << 63:
        # the rejection limit is 2^63 + 1 there, so about half the u64s are redrawn
        assert _draws_used(a) > 50
