"""Exact rational arithmetic support: factorization and seeded sampling.

Rationals are plain ``fractions.Fraction`` (canonical: positive denominator,
gcd-reduced, zero is 0/1 — the stdlib already enforces all of that).

Two services live here:

* exact prime factorization of nonzero rationals, used to move specialized
  equation arguments into additive prime-exponent coordinates;
* a deterministic, splittable PRNG (SplitMix64) and a rational sampler built
  on it, so every probabilistic verdict in the package is reproducible
  bit-for-bit from a single integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, FrozenSet, Iterable, List, Tuple

__all__ = [
    "DomainError",
    "SampleSpaceExhausted",
    "RationalFactorization",
    "factor_rational",
    "factor_int",
    "is_probable_prime",
    "SplitMix64",
    "random_rational",
]


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (e.g. factoring 0)."""


class SampleSpaceExhausted(RuntimeError):
    """Every admissible sample is excluded."""


# ---------------------------------------------------------------------------
# SplitMix64
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream (Steele–Lea–Flood 2014).

    ``next_u64`` advances the state by the 64-bit golden-ratio constant and
    scrambles it with the standard two-round mix.  ``split`` derives an
    independent child stream from the current seed and a tuple of integer or
    string tags (hashed FNV-1a, not Python ``hash``, so streams are stable
    across processes).  Splitting does not advance the parent.
    """

    __slots__ = ("_state", "seed")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, for 0 < n <= 2^64."""
        if not 0 < n <= _MASK64 + 1:
            raise ValueError("next_below needs a bound in [1, 2^64]")
        # widest multiple of n below 2^64; rejection keeps exact uniformity
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.next_below(hi - lo + 1)

    def ints(self, lo: int, hi: int, count: int) -> List[int]:
        """``[self.next_int(lo, hi) for _ in range(count)]``: the same draws
        and end state, with the rejection limit computed once and the mix
        inlined."""
        n = hi - lo + 1
        if not 0 < n <= _MASK64 + 1:
            raise ValueError("ints needs lo <= hi and at most 2^64 values")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        state = self._state
        out: List[int] = []
        while len(out) < count:
            state = (state + _GOLDEN) & _MASK64
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
            z ^= z >> 31
            if z < limit:
                out.append(lo + z % n)
        self._state = state
        return out

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def split(self, *tags: int | str) -> "SplitMix64":
        h = 0xCBF29CE484222325  # FNV-1a 64 offset basis
        for tag in tags:
            if isinstance(tag, str):
                data = tag.encode()
            else:
                data = tag.to_bytes((tag.bit_length() + 8) // 8 + 1, "little", signed=True)
            for b in data:
                h = ((h ^ b) * 0x100000001B3) & _MASK64
        return SplitMix64(_mix64(self.seed ^ h))


# ---------------------------------------------------------------------------
# Integer factorization: small trial division, Miller-Rabin, Brent's rho
# ---------------------------------------------------------------------------

def _primes_below(n: int) -> Tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, v in enumerate(sieve) if v)


# trial division runs over the primes below this bound, so a cofactor left
# below its square has no factor it could have missed: it is 1 or a prime
_TRIAL_BOUND = 1 << 10
_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)

# deterministic Miller-Rabin witnesses for n < 3.317e24 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: SplitMix64) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant).

    The start y and the constant c are drawn below min(n, 2^64): SplitMix64
    draws are 64-bit, so its rejection bound for a wider n would be empty.
    """
    top = min(n, 1 << 64) - 1
    while True:
        y = rng.next_int(1, top)
        c = rng.next_int(1, top)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with fresh parameters


_factor_cache: Dict[int, Dict[int, int]] = {}


def factor_int(n: int) -> Dict[int, int]:
    """Exact factorization of a positive integer as {prime: exponent}, the
    primes ascending.

    Trial division by the primes below _TRIAL_BOUND (2^10), stopping once
    p^2 exceeds what is left.  A cofactor below _TRIAL_BOUND^2 is then prime;
    a larger one goes to ``is_probable_prime`` (exact below 3.317e24, far
    above the 34-bit integers the kernel test specializes to), and only a
    composite one to Brent rho, with a fixed-seed generator, so results are
    deterministic.  Results are cached per n (callers get a copy).  Sampled
    specialization points keep cofactors small; this is not a
    general-purpose factoring engine.
    """
    if n <= 0:
        raise DomainError("factor_int needs a positive integer")
    if n == 1:
        return {}
    cached = _factor_cache.get(n)
    if cached is not None:
        return dict(cached)
    original = n
    out: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if not n % p:
            e = 0
            while not n % p:
                n //= p
                e += 1
            out[p] = e
    large: Dict[int, int] = {}
    stack = [n] if n > 1 else []
    rng = None  # built only when a composite cofactor needs Brent rho
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(m):
            large[m] = large.get(m, 0) + 1
            continue
        if rng is None:
            rng = SplitMix64(0x5EED_FAC7).split(original & _MASK64)
        d = _brent_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    for q in sorted(large):
        out[q] = large[q]
    if len(_factor_cache) < 200_000:
        _factor_cache[original] = dict(out)
    return out


# ---------------------------------------------------------------------------
# Rational factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFactorization:
    """Sign and prime-exponent map of a nonzero rational.

    ``sign * prod(p**e)`` reconstructs the input exactly; all keys are primes
    and all exponents are nonzero.
    """

    sign: int
    factors: Dict[int, int] = field(default_factory=dict)

    def reconstruct(self) -> Fraction:
        num, den = 1, 1
        for p, e in self.factors.items():
            if e > 0:
                num *= p ** e
            else:
                den *= p ** (-e)
        return Fraction(self.sign * num, den)


def factor_rational(q: Fraction | int) -> RationalFactorization:
    """Exact factorization of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("cannot factor zero")
    sign = 1 if q > 0 else -1
    factors = dict(factor_int(abs(q.numerator)))
    for p, e in factor_int(q.denominator).items():
        factors[p] = factors.get(p, 0) - e
    return RationalFactorization(sign, {p: e for p, e in factors.items() if e != 0})


# ---------------------------------------------------------------------------
# Seeded rational sampling
# ---------------------------------------------------------------------------

def _all_rationals_of_height(height: int) -> Iterable[Fraction]:
    for den in range(1, height + 1):
        for num in range(-height, height + 1):
            q = Fraction(num, den)
            if abs(q.numerator) <= height and q.denominator <= height:
                yield q


def random_rational(
    height: int,
    rng: SplitMix64 | int,
    exclusions: FrozenSet[Fraction] | set = frozenset(),
) -> Fraction:
    """Draw a rational with |numerator| <= height, denominator <= height.

    0 and 1 are always excluded on top of ``exclusions``.  ``rng`` may be a
    SplitMix64 stream (advanced in place — repeated calls walk a deterministic
    sequence) or a bare integer seed.  Raises SampleSpaceExhausted when no
    admissible rational of the given height exists.
    """
    if height < 2:
        raise DomainError("height must be >= 2")
    if isinstance(rng, int):
        rng = SplitMix64(rng)
    excluded = {Fraction(0), Fraction(1)} | {Fraction(e) for e in exclusions}
    attempts = 40 * (2 * height + 1) * height
    for _ in range(attempts):
        num = rng.next_int(-height, height)
        den = rng.next_int(1, height)
        q = Fraction(num, den)
        if q not in excluded:
            return q
    remaining = [q for q in _all_rationals_of_height(height) if q not in excluded]
    if not remaining:
        raise SampleSpaceExhausted(f"no rational of height <= {height} survives the exclusions")
    return sorted(remaining)[rng.next_below(len(remaining))]
