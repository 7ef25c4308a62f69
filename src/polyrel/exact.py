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
from typing import Dict, FrozenSet, Iterable, List

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
        """Uniform integer in [0, n) by rejection (n must be positive)."""
        if n <= 0:
            raise ValueError("next_below needs a positive bound")
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
        if n <= 0:
            raise ValueError("ints needs lo <= hi")
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
# Integer factorization: trial division + Brent's rho
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 100_000

# deterministic Miller-Rabin witnesses for n < 3.317e24
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
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    from math import gcd

    while True:
        y = rng.next_int(1, n - 1)
        c = rng.next_int(1, n - 1)
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
    """Exact factorization of a positive integer as {prime: exponent}.

    Trial division up to 1e5, then Brent rho on the remaining cofactor with a
    fixed-seed generator, so results are deterministic.  Sampled
    specialization points keep cofactors small; this is not a general-purpose
    factoring engine.
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
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p < _TRIAL_LIMIT:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    rng = None  # built only when a composite cofactor needs Brent rho
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if rng is None:
            rng = SplitMix64(0x5EED_FAC7).split(original & _MASK64)
        d = _brent_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
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
