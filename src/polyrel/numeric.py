"""Arbitrary-precision numerics: Li_m, the one-valued CL_m, zeta, certified roots.

Everything here takes an explicit PrecisionPolicy; the policy owns a private
mpmath context (its working precision in decimal digits plus guard digits),
so there is no global precision state and calls are safe to run in parallel.

CL_m is the one-valued polylogarithm: the Bernoulli-weighted combination

    CL_m(z) = Re_m( sum_{r=0}^{m-1} (2^r B_r / r!) log^r|z| Li_{m-r}(z) ),

real part for odd m, imaginary part for even m, extended by the inversion
relation CL_m(z) = (-1)^(m-1) CL_m(1/z) to |z| > 1 and by continuity to
{0, 1, infinity}.

The weights of Li_j(z) at one point that a caller reads come out of one
fused kernel (_li_all) in Python-int fixed point at the context precision
plus guard bits (``PrecisionPolicy.fixed_bits``), with the number of terms
fixed before summing.  CL_m reads only the weights m - r with B_r != 0
(m = 7: 7, 6, 5, 3, 1), and the kernel computes no other:

* |z| <= 1/2: the powers z^n, then one builtin pass per weight read,
  jumping from weight j to weight j + k by one floor division by n^k
  (bit-identical to k divisions by n); N terms with 2|z|^N < 2^-bits.
* 1/2 < |z| <= 2: one sweep of t^k against a cached table (``_sweep``),
  K terms with 2^8 |t|^K / (1-|t|) < 2^-bits, in whichever expansion
  ``_near_minus_one`` estimates the cheaper: t = log(z)/2pi (|t| < 0.513)
  against zeta(j-k) (2pi)^k / k!, plus a log term at degree j-1 with one
  shared log(-log z), of which CL_m needs only the real part
  (``_li_log_series``); or about -1, t = log(-z)/pi (|t| <= 1/2) against
  -eta(j-k) pi^k / k!, with no log term.  The tables are built in Python
  ints too, from one zeta evaluator: Borwein's series in fixed point at the
  same width (``_zeta_fixed``, within one unit of 2^-bits), so the guard
  bits hold in the tables as well.  ``zeta_int`` rounds that value to the
  context precision.

The logarithms (log z and log|log z| or log(-log z), log(-z) for the eta
expansion and the inversion, log|z|, log(1-z)) come from one fixed-point
complex log, ``_log_fixed``, and so does pi (``_pi_fixed``, the imaginary
part of log(-1)): the kernel makes no mpmath call.

A number enters fixed point one way: ``exact_complex`` reads its exact
value and ``fixed_pair`` floors it, at the width ``_fixed_argument`` picks
from its exact top bit (``fixed_width``: extra bits far from the unit
circle).  li_m folds |z| > 2 by inversion.  CL_m's integer core
(``_cl_fixed``) runs _CL_EXTRA_BITS wider than its argument, folds |z| > 1
to 1/z and sums the parts it keeps of one kernel call with cached Bernoulli
weights; ``cl_apply`` sums c * core over a linear combination in ints, and
``cl_m`` is its one-term case.  A value
leaves fixed point one way too, rounded once by ``_rounded``.

Polynomial roots (``poly_roots``) are proved, not estimated: float
Durand-Kerner (or, without float seeds, a start scaled to the size of the
roots) seeds Weierstrass sweeps in Gaussian-int fixed point at
``policy.fixed_bits`` plus guard bits, and one Weierstrass-Gerschgorin
certificate, computed exactly on the coefficients as given, encloses every
root or cluster of roots in a disk and counts its multiplicity.  Each root
comes back as a fixed-point pair with its radius (``Root``), which the
numeric verifier's argument plan takes as it is.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, hypot, inf, isqrt, lcm, log2
from operator import floordiv, mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact import DomainError
from .ratfunc import INFINITY

__all__ = [
    "PrecisionPolicy",
    "BranchAmbiguityError",
    "PoleError",
    "RootFindingError",
    "bernoulli",
    "zeta_int",
    "li_m",
    "cl_m",
    "cl_apply",
    "poly_roots",
    "Root",
    "exact_complex",
    "fixed_pair",
]


class BranchAmbiguityError(ValueError):
    """Li_m requested on the cut [1, oo) where the branch is ambiguous."""


class PoleError(ValueError):
    pass


class RootFindingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Precision policy
# ---------------------------------------------------------------------------

@dataclass
class PrecisionPolicy:
    """Working precision P (decimal digits), guard digits, tolerance slack.

    tolerance = 10^(-P + t_slack) is the pass threshold for numeric
    verification; internal arithmetic runs at P + guard digits.
    """

    working_digits: int = 50
    guard_digits: int = 10
    t_slack: int = 15
    _ctx: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.working_digits < 10:
            raise DomainError("working precision must be at least 10 digits")
        if self.working_digits <= self.guard_digits + self.t_slack:
            raise DomainError("working precision must exceed guard + slack digits")

    @staticmethod
    def for_digits(digits: int) -> "PrecisionPolicy":
        """Policy for any working precision >= 10, scaling guard/slack down
        so the invariant P > guard + slack always holds.

        For P >= 10 the guard is at most P // 4, so the slack is at least 7;
        below 10 digits the constructor raises.
        """
        guard = min(10, max(2, digits // 4))
        slack = min(15, digits - guard - 1)
        return PrecisionPolicy(digits, guard_digits=guard, t_slack=slack)

    @property
    def context(self):
        if self._ctx is None:
            from mpmath.ctx_mp import MPContext

            ctx = MPContext()
            ctx.dps = self.working_digits + self.guard_digits
            object.__setattr__(self, "_ctx", ctx)
        return self._ctx

    @property
    def fixed_bits(self) -> int:
        """Bits of the Python-int fixed point the kernels run in: the context
        precision plus _GUARD_BITS."""
        return self.context.prec + _GUARD_BITS

    @property
    def tolerance(self):
        ctx = self.context
        return ctx.mpf(10) ** (-self.working_digits + self.t_slack)


# ---------------------------------------------------------------------------
# Into fixed point and out of it
# ---------------------------------------------------------------------------

class Root(NamedTuple):
    """A certified root (x + iy) / 2^wp: the polynomial has a root (a k-fold
    cluster: k roots) within radius / 2^wp of it."""

    x: int
    y: int
    wp: int
    radius: int

    @property
    def pair(self) -> Tuple[int, int, int]:
        return self.x, self.y, self.wp


def _is_fixed(value) -> bool:
    """A ``Root`` or a fixed-point triple (x, y, wp), (x + iy) / 2^wp."""
    return isinstance(value, Root) or isinstance(value, tuple) and len(value) == 3


def exact_complex(value) -> Tuple[Fraction, Fraction]:
    """A number's exact value as a Gaussian rational (re, im): an int,
    Fraction, float, complex, mpf or mpc (its binary value), a pair of
    rationals, or a ``Root`` or fixed-point triple (x, y, wp) standing for
    (x + iy) / 2^wp.  Any other tuple, and a non-finite value, raise
    DomainError naming the value."""
    from mpmath.libmp import from_float, fzero, to_rational

    if _is_fixed(value):
        x, y, wp = value[:3]
        return Fraction(x, 1 << wp), Fraction(y, 1 << wp)
    if isinstance(value, tuple):
        if len(value) != 2:
            raise DomainError(f"not a number, nor a pair or triple: {value}")
        try:
            return Fraction(value[0]), Fraction(value[1])
        except (OverflowError, ValueError):  # an inf or nan part
            raise DomainError(f"need a finite number, got {value}") from None
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0)
    if hasattr(value, "_mpc_") or hasattr(value, "_mpf_"):
        parts = getattr(value, "_mpc_", None) or (value._mpf_, fzero)
    else:
        z = complex(value)
        parts = from_float(z.real), from_float(z.imag)
    if any(not man and exp for _, man, exp, _ in parts):  # inf and nan
        raise DomainError(f"need a finite number, got {value}")
    return tuple(Fraction(*to_rational(p)) for p in parts)


def fixed_pair(value, wp: int) -> Tuple[int, int]:
    """(re, im) of a number's exact value (``exact_complex``) as ints
    scaled by 2^wp, rounded toward -oo; a ``Root`` or fixed-point triple is
    shifted as ints."""
    if _is_fixed(value):
        x, y, w = value[:3]
        return x << wp >> w, y << wp >> w
    re, im = exact_complex(value)
    return (re.numerator << wp) // re.denominator, (im.numerator << wp) // im.denominator


def _rounded(num: int, scale: int, prec: int, den: int = 1):
    """num / (den 2^scale) rounded to nearest at prec bits, as mpmath's raw
    mpf: the one way a value leaves fixed point."""
    from mpmath.libmp import from_int, from_man_exp, mpf_div

    return mpf_div(from_man_exp(num, -scale), from_int(den), prec, "n")


def from_fixed_pair(re: int, im: int, wp: int, ctx):
    """The mpc of a fixed-point pair, rounded to the context precision."""
    return ctx.make_mpc((_rounded(re, wp, ctx.prec), _rounded(im, wp, ctx.prec)))


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta values
# ---------------------------------------------------------------------------

_bernoulli_cache: List[Fraction] = [Fraction(1)]


def bernoulli(r: int) -> Fraction:
    """Exact Bernoulli number B_r, convention B_1 = -1/2."""
    if r < 0:
        raise DomainError("Bernoulli numbers need r >= 0")
    while len(_bernoulli_cache) <= r:
        n = len(_bernoulli_cache)
        acc = Fraction(0)
        for j in range(n):
            acc += comb(n + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (n + 1))
    return _bernoulli_cache[r]


# log2(3 + sqrt 8): Borwein's series for zeta(k), k >= 2, summed to n terms is
# off by at most 2 (3 + sqrt 8)^-n / (Gamma(k) (1 - 2^(1-k))) <= 4 (3 + sqrt 8)^-n.
_LOG2_BORWEIN = log2(3 + 8 ** 0.5)


@lru_cache(maxsize=None)
def _borwein_weights(wp: int) -> Tuple[int, Tuple[int, ...]]:
    """(guard, c) for zeta in fixed point at wp bits: c_j = (d_n - d_j) / d_n
    for j < n, scaled by 2^(wp + guard).

    d_j = n sum_{i<=j} (n+i-1)! 4^i / ((n-i)! (2i)!) (exact integers), with
    n the first term count where
    (3 + sqrt 8)^-n < 2^-(wp+8).  The guard, n.bit_length() + 4 bits,
    absorbs the floor of each of the n terms.
    """
    n = int((wp + 8) / _LOG2_BORWEIN) + 1
    guard = n.bit_length() + 4
    d, acc, num = [], 0, 1  # num = n (n+i-1)! 4^i / ((n-i)! (2i)!)
    for i in range(n + 1):
        if i:
            num = num * (n + i - 1) * (n - i + 1) * 4 // ((2 * i) * (2 * i - 1))
        acc += num
        d.append(acc)
    dn = d[n]
    return guard, tuple(((dn - dj) << (wp + guard)) // dn for dj in d[:n])


@lru_cache(maxsize=10_000)
def _zeta_fixed(k: int, wp: int) -> int:
    """zeta(k) for integer k >= 2 as an int scaled by 2^wp, within one unit.

    Borwein's accelerated alternating series (Borwein 2000, algorithm 2):
    eta(k) = sum_j (-1)^j c_j / (j+1)^k with the cached weights
    c_j = (d_n - d_j) / d_n, then zeta(k) = eta(k) / (1 - 2^(1-k)), summed in
    Python ints at wp + guard bits and rounded to wp.  0 <= c_j <= 1
    decreases, so for large k (the log-expansion table) the series stops at
    the first term below 2^-(wp+guard), as an alternating tail allows.
    """
    guard, weights = _borwein_weights(wp)
    bits = wp + guard
    n = len(weights)
    terms = n if k * log2(n) <= bits else int(2 ** (bits / k)) + 1
    eta = sum(weights[j] // (j + 1) ** k for j in range(0, terms, 2)) - sum(
        weights[j] // (j + 1) ** k for j in range(1, terms, 2)
    )
    return ((eta << (k - 1)) // ((1 << (k - 1)) - 1) + (1 << (guard - 1))) >> guard


def zeta_int(k: int, policy: PrecisionPolicy):
    """zeta(k) for integer k >= 2: the fixed-point value at
    ``policy.fixed_bits`` (``_zeta_fixed``, cached per k and width) rounded
    to the context precision.
    """
    if k < 2:
        raise DomainError("zeta_int needs k >= 2")
    ctx = policy.context
    wp = policy.fixed_bits
    return ctx.make_mpf(_rounded(_zeta_fixed(k, wp), wp, ctx.prec))


@lru_cache(maxsize=None)
def _harmonic(m: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# Li_1 .. Li_m: fused fixed-point kernel
# ---------------------------------------------------------------------------

# Fixed-point numbers are Python ints scaled by 2^wp, wp = policy.fixed_bits
# (the context precision plus _GUARD_BITS); the guard bits absorb the rounding
# of the truncated terms (about one ulp per term and weight) and of the
# expansion tables (a few ulps per entry, zeta included), so far below 2^36
# ulps at any term count used here.  CL_m's core runs _CL_EXTRA_BITS wider
# still: against mpmath's polylog at 110 digits, on 200 seeded points at
# P = 30 and 60 for m = 2, 3, 4, 7, its worst errors in units of
# 2^-fixed_bits fall from 151-258 (power series), 477-628 (log expansion)
# and 404-488 (about -1, then still the log expansion) to 1.1, 2.4 and 1.2.
_GUARD_BITS = 36
# |e_(j,k)| <= zeta(2) * max_n (2pi)^n/n! < 2^8 for every log-table entry
# below; the eta table's are below 2^3.
_COEFF_BITS = 8
# |u| = |log z| / 2pi <= sqrt(log(2)^2 + pi^2) / 2pi < 0.513 for 1/2 < |z| <= 2.
_U_MAX = 0.513


def _terms(wp: int, log2_ratio: float, extra_bits: float) -> int:
    """Smallest K with 2^extra_bits * ratio^K < 2^-wp (ratio < 1)."""
    if log2_ratio == -inf:
        return 1
    return int((wp + extra_bits) / -log2_ratio) + 1


def _log2_abs(re: int, im: int, wp: int) -> float:
    """log2 |re + i im| / 2^wp for fixed-point ints; -inf at zero."""
    bits = max(abs(re).bit_length(), abs(im).bit_length())
    if bits == 0:
        return -inf
    shift = max(bits - 60, 0)
    return log2(hypot(re >> shift, im >> shift)) + shift - wp


def _atanh_sum(sr: int, si: int, wp: int) -> Tuple[int, int]:
    """sum_n s^(2n+1)/(2n+1) = atanh(s) for complex s = (sr + i si)/2^wp,
    |s| < 1/2, with the term count N fixed from |s|: the tail after N terms
    is below (4/3)|s|^(2N+1) < 2|s|^(2N) < 2^-wp.  Each power and quotient
    is floored, under 2 units per term and part, so the sum is within 2N
    units per part."""
    count = _terms(wp, 2 * _log2_abs(sr, si, wp), 1)
    qr, qi = (sr * sr - si * si) >> wp, (2 * sr * si) >> wp
    pr, pi = accr, acci = sr, si
    for n in range(3, 2 * count, 2):
        pr, pi = (pr * qr - pi * qi) >> wp, (pr * qi + pi * qr) >> wp
        accr += pr // n
        acci += pi // n
    return accr, acci


@lru_cache(maxsize=None)
def _ln2_fixed(wp: int) -> int:
    """log 2 = 2 atanh(1/3) as an int scaled by 2^wp, within one unit: summed
    at wp + guard bits, where the guard absorbs one floor per term."""
    guard = wp.bit_length() + 2
    s = (1 << (wp + guard)) // 3
    return ((2 * _atanh_sum(s, 0, wp + guard)[0] >> (guard - 1)) + 1) >> 1


def _log_fixed(x: int, y: int, wp: int) -> Tuple[int, int]:
    """Principal log((x + iy) / 2^wp) as (re, im) in fixed point at wp bits,
    imaginary part in (-pi, pi]; z = 0 raises DomainError.

    Square-root argument reduction (Brent and Zimmermann, Modern Computer
    Arithmetic, 2010, ch. 4), in Python ints at W = wp + k + 16 bits with
    k = max(2, isqrt(wp / 8)), which balances the roots against the terms:

    1. z = 2^e z' with 1/2 <= |z'|^2 < 2, e from the bit length of |z|^2;
    2. k principal square roots z_j = sqrt(z_(j-1)) with ``math.isqrt``;
    3. log z_k = 2 atanh(s), s = (z_k - 1)/(z_k + 1), |s| < 3.3 / 2^(k+1),
       summed by ``_atanh_sum``;
    4. log z = 2^k log z_k + e log 2, ``_ln2_fixed`` cached per width.

    Counted error, in units of 2^-W: at most 2 from shifting z' into W bits
    (|z'| >= 1/sqrt 2), at most 5 in log z_j from the floors of root j, which
    the reconstruction multiplies by 2^j (10 * 2^k over all roots), 3 from
    the floored quotient s and 4N from a series of N terms, which it
    multiplies by 2^k, and |e| from log 2.  In units of 2^-wp that is at most
    1/2 (the final rounding to nearest) + 2^-16 (4N + 13) + (|e| + 2)
    2^-(k+16): below 0.6 units for any N < 1000 and |e| < 2^(k+12).  The
    imaginary part keeps the sign of y (+-1 where it would round to 0, an
    error below one unit), so it is 0 only on the real axis: a log taken of
    -log z stays on z's side of the cut.
    """
    if not x and not y:
        raise DomainError("log is undefined at z = 0")
    k = max(2, isqrt(wp >> 3))
    guard = k + 16
    width = wp + guard
    e = ((x * x + y * y).bit_length() - 2 * wp) >> 1
    shift = guard - e
    a, b = (x << shift, y << shift) if shift >= 0 else (x >> -shift, y >> -shift)
    for _ in range(k):
        # sqrt(a + ib) = c + id with c = sqrt((|z| + a)/2), d = b / 2c, or
        # for a < 0 the same with the roles of c and d swapped
        r = isqrt(a * a + b * b) if b else abs(a)
        if a >= 0:
            c = isqrt((r + a) << (width - 1))
            a, b = c, (b << (width - 1)) // c
        else:
            d = isqrt((r - a) << (width - 1))
            d = -d if b < 0 else d
            a, b = (b << (width - 1)) // d, d
    one = 1 << width
    den = (a + one) ** 2 + b * b
    sr, si = _atanh_sum(
        ((a * a + b * b - one * one) << width) // den, (b * one << (width + 1)) // den, width
    )
    half = 1 << (guard - 1)
    re = ((sr << (k + 1)) + e * _ln2_fixed(width) + half) >> guard
    im = ((si << (k + 1)) + half) >> guard
    if y and not im:
        im = 1 if y > 0 else -1
    return re, im


@lru_cache(maxsize=None)
def _pi_fixed(wp: int) -> int:
    """floor(pi 2^wp): Im log(-1) from ``_log_fixed`` at wp + 20 bits (within
    0.6 units) shifted down 20 bits, exact unless pi 2^wp lies within 2^-20
    of an integer, which happens at no width from 16 to 1500 bits."""
    return _log_fixed(-1 << (wp + 20), 0, wp + 20)[1] >> 20


# k -> (1^k, 2^k, ...), replaced by a longer tuple when a call needs more
_powers_of_n: Dict[int, Tuple[int, ...]] = {}


def _powers(k: int, count: int) -> Tuple[int, ...]:
    """n^k for n = 1.. (at least ``count`` of them), cached per k; a cache
    entry is only ever replaced whole, so concurrent callers see a complete
    tuple."""
    powers = _powers_of_n.get(k, ())
    if len(powers) < count:
        powers = _powers_of_n[k] = tuple(n**k for n in range(1, count + 1))
    return powers


def _power_series(x: int, y: int, wp: int, weights: Sequence[int], part: int) -> List[int]:
    """|z| <= 1/2: the real (``part`` 0) or imaginary (``part`` 1) parts of
    Li_j(z) = sum_n z^n / n^j for each j of the increasing ``weights``, in
    fixed point, N terms with 2|z|^N < 2^-wp, which bounds the tail
    |z|^(N+1)/(1-|z|).

    That part of z^n satisfies s_n = 2 Re(z) s_(n-1) - |z|^2 s_(n-2), whose
    roots are z and conj(z), so it needs two products per power; a rounding
    error reaches the power k steps later multiplied by
    (z^(k+1) - conj(z)^(k+1)) / (z - conj(z)), at most (k+1) |z|^k <= 1 in
    size.  From weight j the next weight j + k divides weight j's terms by
    n^k, one builtin pass per weight returned.  Since floor(floor(a/b)/c) =
    floor(a/(bc)) for b, c > 0, every value is bit-identical to the chain
    that divides by n once per weight.
    """
    count = _terms(wp, _log2_abs(x, y, wp), 1)
    a, b = (1 << wp, x) if part == 0 else (0, y)
    terms = [b]
    p, q = 2 * x, (x * x + y * y) >> wp
    for _ in range(count - 1):
        a, b = b, (p * b - q * a) >> wp
        terms.append(b)
    out, at = [], 0
    for j in weights:
        terms = list(map(floordiv, terms, _powers(j - at, count)))
        out.append(sum(terms))
        at = j
    return out


def _over_factorials(wp: int, count: int, c: int) -> List[int]:
    """(c pi)^k / k! for k < count in fixed point at wp bits, built 8 bits
    wider: the powers carry pi's last-unit error up to k (c pi)^(k-1) / k!
    < 2^7 times for c <= 2."""
    wb = wp + 8
    cpi = _pi_fixed(wb) * c
    scaled = [1 << wb]
    for k in range(1, count):
        scaled.append(scaled[-1] * cpi // (k << wb))
    return [s >> 8 for s in scaled]


@lru_cache(maxsize=None)
def _log_table(m: int, wp: int) -> Tuple:
    """Rows j = 1..m of e_(j,k) = zeta(j-k) (2pi)^k / k! in fixed point.

    Row j is (head, tail, dist): head holds k = 0..j with k = j-1 set to 0
    (that degree carries the log term), tail holds the odd-offset
    k = j+1, j+3, ... (zeta vanishes at negative even integers), and dist is
    (2pi)^(j-1)/(j-1)!.  zeta at 1-2p comes from the functional equation
    zeta(1-2p) = (-1)^p 2 (2p-1)! zeta(2p) / (2pi)^(2p), which turns the
    tail entries into (-1)^p 2 zeta(2p) (2pi)^(j-1) (2p-1)!/k!.  Every zeta
    value is ``_zeta_fixed``'s at wp bits, so the whole table is built in
    Python ints and each entry is within a few units of 2^-wp, well inside
    the guard bits.  Built on first use for each (m, wp), for every
    |u| <= _U_MAX.
    """
    k_max = _terms(wp, log2(_U_MAX), _COEFF_BITS + 2)
    scaled = _over_factorials(wp, max(k_max, m + 1), 2)
    rows = []
    for j in range(1, m + 1):
        head = [_zeta_fixed(j - k, wp) * scaled[k] >> wp for k in range(j - 1)]
        head += [0, -scaled[j] // 2]  # degree j-1; zeta(0) = -1/2
        tail = []
        for k in range(j + 1, k_max, 2):
            p = (k - j + 1) // 2
            # (2pi)^(j-1) (2p-1)!/k! = scaled[j-1] / (k C(k-1, j-1))
            entry = (2 * _zeta_fixed(2 * p, wp) * scaled[j - 1] >> wp) // (
                k * comb(k - 1, j - 1)
            )
            tail.append(-entry if p % 2 else entry)
        rows.append((head, tail, scaled[j - 1]))
    return tuple(rows)


@lru_cache(maxsize=None)
def _eta_table(m: int, wp: int) -> Tuple:
    """Rows j = 1..m of -eta(j-k) pi^k / k! in fixed point, the coefficients
    of Li_j(-e^v) = -sum_k eta(j-k) v^k / k! in t = v/pi.

    eta(s) = (1 - 2^(1-s)) zeta(s) is Dirichlet's eta: ``_zeta_fixed`` less
    its shift for s >= 2, log 2 at s = 1 and 1/2 at s = 0.  Row j is (head,
    tail) as in ``_log_table``: head holds k = 0..j, tail the odd offsets
    k = j+1, j+3, ..., since eta vanishes at negative even integers.  At
    k = j + 2p - 1 the functional equation turns -eta(1-2p) pi^k / k! into
    (-1)^p 2 (1 - 2^-2p) zeta(2p) pi^(j-1) (2p-1)!/k!, near 2/k in size.
    Every entry is within a few units of 2^-wp.  Built on first use for
    each (m, wp), for every |t| <= _U_MAX.
    """
    k_max = _terms(wp, log2(_U_MAX), _COEFF_BITS + 2)
    scaled = _over_factorials(wp, max(k_max, m + 1), 1)

    def eta(s: int) -> int:
        if s >= 2:
            z = _zeta_fixed(s, wp)
            return z - (z >> (s - 1))
        return _ln2_fixed(wp) if s else 1 << (wp - 1)

    rows = []
    for j in range(1, m + 1):
        head = [-(eta(j - k) * scaled[k] >> wp) for k in range(j + 1)]
        tail = []
        for k in range(j + 1, k_max, 2):
            p = (k - j + 1) // 2
            z = _zeta_fixed(2 * p, wp)
            # pi^(j-1) (2p-1)!/k! = scaled[j-1] / (k C(k-1, j-1))
            entry = (2 * (z - (z >> 2 * p)) * scaled[j - 1] >> wp) // (k * comb(k - 1, j - 1))
            tail.append(-entry if p % 2 else entry)
        rows.append((head, tail))
    return tuple(rows)


Weight = Callable[[int, int], int]


def _sweep(tr: int, ti: int, wp: int, m: int, rows: Tuple) -> Tuple[Weight, List[int], List[int]]:
    """(total, powers re, powers im) for t = (tr + i ti) / 2^wp, |t| <= _U_MAX:
    the powers t^k, K of them with 2^_COEFF_BITS |t|^K / (1-|t|) < 2^-wp (at
    least m + 1), and ``total(j, part)``, the real (``part`` 0) or imaginary
    (``part`` 1) part of row j's head and tail (``_log_table``,
    ``_eta_table``) summed against them at scale 2^(2 wp)."""
    n_terms = max(_terms(wp, _log2_abs(tr, ti, wp), _COEFF_BITS + 2), m + 1)
    upr, upi = [1 << wp], [0]
    for _ in range(n_terms - 1):
        a, b = upr[-1], upi[-1]
        upr.append((a * tr - b * ti) >> wp)
        upi.append((a * ti + b * tr) >> wp)

    def total(j: int, part: int) -> int:
        head, tail = rows[j - 1][:2]
        up = upi if part else upr
        return sum(map(mul, head, up)) + sum(map(mul, tail, up[j + 1 :: 2]))

    return total, upr, upi


def _li_log_series(m: int, x: int, y: int, wp: int, branch: bool) -> Tuple[Weight, int]:
    """1/2 < |z| <= 2: the expansion in u = w/2pi, w = log z (|u| < 0.513).

    Li_j(e^w) = sum_{k != j-1} e_(j,k) u^k
                + w^(j-1)/(j-1)! (H_(j-1) - log(-w)),
    one ``_sweep`` of u^k shared by every weight and both parts.  w comes
    from ``_log_fixed``, and is never 0 there, since z != 1 lies at least
    one unit from 1 and the log keeps that unit.

    With ``branch`` the log term takes the complex log(-w), as Li_j needs.
    Without it, the real log|w|, which is all CL_m reads: over the weights
    j = m - r, sum_r 2^r B_r / r! L^r w^(m-1-r) / (m-1-r)!, L = Re w, is the
    coefficient of x^(m-1) in (L x / sinh(L x)) e^(i Im(w) x), real for odd
    m and imaginary for even m, so arg(-w) drops out of the part CL_m keeps.

    Returns (weight, log|z|) in fixed point: ``weight(j, part)`` is the real
    (``part`` 0) or imaginary (``part`` 1) part of Li_j(z), j <= m (without
    ``branch``, less the arg(-w) term CL_m drops), and log|z| = Re w.
    """
    wr, wi = _log_fixed(x, y, wp)
    if branch:
        log_r, log_i = _log_fixed(-wr, -wi, wp)
    else:
        log_r, log_i = _log_fixed(isqrt(wr * wr + wi * wi), 0, wp)[0], 0
    twopi = _pi_fixed(wp) << 1
    table = _log_table(m, wp)
    total, upr, upi = _sweep((wr << wp) // twopi, (wi << wp) // twopi, wp, m, table)

    def weight(j: int, part: int) -> int:
        # w^(j-1)/(j-1)! (H_(j-1) - log(-w)) = dist u^(j-1) (H_(j-1) - log(-w))
        h = _harmonic(j - 1)
        br = (h.numerator << wp) // h.denominator - log_r
        bi = -log_i
        ar, ai = upr[j - 1], upi[j - 1]
        dist = table[j - 1][2]
        log_term = dist * ((ar * bi + ai * br if part else ar * br - ai * bi) >> wp)
        return (total(j, part) + log_term) >> wp

    return weight, wr


def _li_eta_series(m: int, x: int, y: int, wp: int) -> Tuple[Weight, int]:
    """z near -1: Li_j(-e^v) = -sum_k eta(j-k) v^k / k! with v = log(-z),
    one ``_sweep`` of t = v/pi (|t| <= 1/2 where ``_near_minus_one`` picks
    it) against ``_eta_table``.  eta is entire, so the series has no log
    term and needs no second log.  Returns (weight, log|z|) as
    ``_li_log_series`` does; log|z| = Re v."""
    vr, vi = _log_fixed(-x, -y, wp)
    pi = _pi_fixed(wp)
    total = _sweep((vr << wp) // pi, (vi << wp) // pi, wp, m, _eta_table(m, wp))[0]
    return (lambda j, part: total(j, part) >> wp), vr


# sweep terms charged for the log expansion's second log (the real log|w|,
# or li_m's complex log(-w)), against the eta expansion, which has none
_LOG_TERMS = 40


def _near_minus_one(x: int, y: int, wp: int) -> bool:
    """For 1/2 < |z| <= 2, z = (x + iy) / 2^wp: whether the eta expansion
    about -1 is the cheaper one.  It needs |log(-z)| / pi <= 1/2, and fewer
    terms than the log expansion's plus _LOG_TERMS, both counted from float
    logs, so the choice is a fixed function of (x, y, wp)."""
    z = complex(x / (1 << wp), y / (1 << wp))
    t = abs(cmath.log(-z)) / cmath.pi
    if t > 0.5:
        return False
    u = abs(cmath.log(z)) / (2 * cmath.pi)  # near -1, so about 1/2
    extra = _COEFF_BITS + 2
    return _terms(wp, log2(t) if t else -inf, extra) < _terms(wp, log2(u), extra) + _LOG_TERMS


def _li_annulus(m: int, x: int, y: int, wp: int, branch: bool = False) -> Tuple[Weight, int]:
    """(weight, log|z|) for 1/2 < |z| <= 2: ``_li_eta_series`` where
    ``_near_minus_one`` picks it, else ``_li_log_series`` (``branch`` as
    there)."""
    if _near_minus_one(x, y, wp):
        return _li_eta_series(m, x, y, wp)
    return _li_log_series(m, x, y, wp, branch)


@lru_cache(maxsize=None)
def _cl_li_weights(m: int) -> Tuple[int, ...]:
    """The weights m - r with B_r != 0, r < m, increasing: the Li_j that
    CL_m reads (m = 7: 1, 3, 5, 6, 7; m = 4: 2, 3, 4)."""
    return tuple(sorted(m - r for r in range(m) if bernoulli(r)))


def _li_all(m: int, x: int, y: int, wp: int, part: int) -> Tuple[Dict[int, int], int]:
    """(values, log_abs) for z = (x + iy) / 2^wp with 0 < |z| <= 2, z != 1.

    ``values`` maps each weight j of ``_cl_li_weights(m)``, and no other, to
    the real (``part`` 0) or imaginary (``part`` 1) part of Li_j(z);
    ``log_abs`` is log|z|, all in fixed point at wp bits.  Every weight
    comes out of one pass, with the term count fixed up front: for
    |z| <= 1/2 the power series sum_n z^n/n^j on that part of the powers
    alone, and log|z| as the real ``_log_fixed`` of |z| = isqrt(x^2 + y^2)
    (``fixed_width`` keeps |z| 2^wp >= 2^(policy.fixed_bits - 3), so the
    floor moves log|z| by at most 2^(3 - policy.fixed_bits), while the Li_j
    it multiplies are O(|z|)); for 1/2 < |z| <= 2 ``_li_annulus``'s
    expansion in log z or log(-z), whose real part is log|z|.  Each value is
    bit-identical to the one the full chain of weights 1..m gives.

    In the log expansion each value takes log|log z| for log(-log z), so it
    is off that part of Li_j(z) by a multiple of arg(-log z) that cancels in
    CL_m's Bernoulli combination (``_li_log_series``).
    """
    weights = _cl_li_weights(m)
    norm = x * x + y * y
    if norm <= 1 << (2 * wp - 2):
        values = _power_series(x, y, wp, weights, part)
        return dict(zip(weights, values)), _log_fixed(isqrt(norm), 0, wp)[0]
    weight, log_abs = _li_annulus(m, x, y, wp)
    return {j: weight(j, part) for j in weights}, log_abs


@lru_cache(maxsize=None)
def _li_inversion_weights(m: int, wp: int) -> Tuple[int, ...]:
    """c_0, ..., c_m in fixed point, c_k = (2^(1-k) - 1) B_k (2 pi i)^k / (k! (m-k)!).

    Every c_k is real: 0 at odd k, and (2 pi i)^k = (-1)^(k/2) (2pi)^k at
    even k, built 8 bits wider to absorb pi's last-unit error in the power.
    """
    wb = wp + 8
    twopi = _pi_fixed(wb) << 1
    out = []
    for k in range(m + 1):
        q = (Fraction(2, 1 << k) - 1) * bernoulli(k) / (factorial(k) * factorial(m - k))
        out.append((-1) ** (k // 2) * (q.numerator * (twopi**k << wb >> k * wb) // q.denominator >> 8))
    return tuple(out)


def fixed_width(top: int, policy: PrecisionPolicy) -> int:
    """The fixed-point width for an argument z with 2^(top-1) <= |z| <
    2^(top+1/2), top the larger bit position of its parts:
    ``policy.fixed_bits`` plus as many bits as |z| or |1/z| has leading zero
    bits, so z, and 1/z after an inversion fold, keep their relative accuracy
    far from the unit circle."""
    return policy.fixed_bits + max(abs(top) - 2, 0)


def _fixed_argument(value, policy: PrecisionPolicy) -> Tuple[int, int, int]:
    """(x, y, wp): a number ``exact_complex`` reads, floored (``fixed_pair``)
    at the width ``fixed_width`` gives the larger top bit floor(log2 |q|) + 1
    of its exact nonzero parts q; a triple or ``Root`` already wider keeps
    its width.  A non-finite value raises DomainError."""
    if _is_fixed(value):
        x, y, w = value[:3]
        parts = [(x, 1 << w), (y, 1 << w)]
    else:
        value = exact_complex(value)
        w, parts = 0, [(q.numerator, q.denominator) for q in value]
    k = max(d.bit_length() for _, d in parts)
    top = max((((abs(n) << k) // d).bit_length() - k for n, d in parts if n), default=0)
    wp = max(fixed_width(top, policy), w)
    return (*fixed_pair(value, wp), wp)


def li_m(m: int, z, policy: PrecisionPolicy):
    """Principal-branch Li_m(z), continued through C - [1, oo).

    m = 1 is -log(1-z) (pole at z = 1); for m >= 2 the point z = 1 itself
    gives zeta(m), while real z > 1 raises BranchAmbiguityError (use CL_m,
    which is one-valued, on the cut).  These checks read z's exact value
    (``exact_complex``).  A non-finite z raises DomainError.

    In fixed point from ``_fixed_argument`` on: m = 1 is one ``_log_fixed``
    of 1 - z, floored from its exact value with the extra bits z or 1 - z
    needs; for m >= 2, |z| <= 1/2 is the power series, 1/2 < |z| <= 2 the
    expansion in log z, and |z| > 2 folds to 1/z by Li_m(z) = (-1)^(m-1)
    Li_m(1/z) - sum_k c_k L^(m-k), L = log(-z), c_k from
    ``_li_inversion_weights``.
    """
    if m < 1:
        raise DomainError("li_m needs m >= 1")
    ctx = policy.context
    z = exact_complex(z)
    x, y, wp = _fixed_argument(z, policy)
    if z == (1, 0):
        if m == 1:
            raise PoleError("Li_1 has a pole at z = 1")
        return ctx.mpc(zeta_int(m, policy))
    if m == 1:
        w = (1 - z[0], -z[1])
        wp = max(wp, _fixed_argument(w, policy)[2])
        re, im = _log_fixed(*fixed_pair(w, wp), wp)
        return from_fixed_pair(-re, -im, wp, ctx)
    if not z[1] and z[0] > 1:
        raise BranchAmbiguityError("Li_m is branch-ambiguous on (1, oo); evaluate CL_m instead")
    if not y and z[1] > 0:
        y = 1  # the floor sends 0 < Im z < 2^-wp to 0; the branch needs its sign
    one = 1 << wp
    norm = x * x + y * y
    fold = norm > one * one << 2  # |z| > 2
    if fold:
        lr, li = _log_fixed(-x, -y, wp)
        x, y = (x << 2 * wp) // norm, (-y << 2 * wp) // norm
    elif norm > one * one >> 2:
        weight = _li_annulus(m, x, y, wp, branch=True)[0]
        return from_fixed_pair(weight(m, 0), weight(m, 1), wp, ctx)
    re, im = (_power_series(x, y, wp, (m,), part)[0] for part in (0, 1))  # |z| <= 1/2
    if fold:
        ar = ai = 0  # sum_k c_k L^(m-k) by Horner's rule, L^m first
        for c in _li_inversion_weights(m, wp):
            ar, ai = ((ar * lr - ai * li) >> wp) + c, (ar * li + ai * lr) >> wp
        sign = (-1) ** (m - 1)
        re, im = sign * re - ar, sign * im - ai
    return from_fixed_pair(re, im, wp, ctx)


# ---------------------------------------------------------------------------
# CL_m
# ---------------------------------------------------------------------------

# bits _cl_fixed carries beyond the argument's width, so that the kernel's
# rounding lands well inside one unit of 2^-policy.fixed_bits
_CL_EXTRA_BITS = 8


@lru_cache(maxsize=None)
def _cl_weights(m: int, wp: int) -> Tuple[Tuple[int, int], ...]:
    """(r, 2^r B_r / r! in fixed point) for the r < m with B_r != 0."""
    nonzero = [(r, bernoulli(r)) for r in range(m) if bernoulli(r)]
    return tuple((r, (b.numerator << (wp + r)) // (b.denominator * factorial(r))) for r, b in nonzero)


def _cl_fixed(m: int, value, policy: PrecisionPolicy) -> Tuple[int, int]:
    """CL_m(value) as an int t and a scale s, the value t / 2^s: CL_m's
    integer core, before any rounding to the context precision.

    ``value`` is INFINITY or any number ``exact_complex`` reads.  Continuity
    values: 0 at 0 and infinity; zeta(m) at 1 (``_zeta_fixed``) for odd m,
    0 for even m.  Any other value enters fixed point once
    (``_fixed_argument``) and runs in Python ints from there, _CL_EXTRA_BITS
    wider than its width, so the sums' rounding stays within a few units of
    2^-``policy.fixed_bits`` (see _GUARD_BITS): |z| > 1 is folded to 1/z,
    and one fused _li_all call gives the real parts (odd m) or the imaginary
    parts (even m) of the Li_j(z) CL_m reads, and log|z|.  The Bernoulli
    weights, cached per (m, bits), combine them at scale s = 2 wp.
    """
    if m < 2:
        raise DomainError("cl_m needs m >= 2 (m = 1 is excluded)")
    if value is INFINITY:
        return 0, 0
    x, y, wp = _fixed_argument(value, policy)
    if not x and not y:
        return 0, 0
    x, y, wp = x << _CL_EXTRA_BITS, y << _CL_EXTRA_BITS, wp + _CL_EXTRA_BITS
    base = policy.fixed_bits + _CL_EXTRA_BITS
    shift = wp - base
    one = 1 << wp
    sign = 1
    norm = x * x + y * y
    if norm > one * one:
        # CL_m(z) = (-1)^(m-1) CL_m(1/z), 1/z = conj(z) / |z|^2
        x, y = (x << 2 * wp) // norm, (-y << 2 * wp) // norm
        sign = (-1) ** (m - 1)
    if x == one and not y:  # z = 1 to the working precision
        return (_zeta_fixed(m, base), base) if m % 2 else (0, 0)
    # log|z| is real, so the part CL_m keeps of the sum is the weighted sum
    # of that part of each Li_j: the real part for odd m, imaginary for even
    values, log_abs = _li_all(m, x, y, wp, 1 - m % 2)
    total = 0
    power, at = one, 0  # log^at |z|
    for r, weight in _cl_weights(m, base):
        while at < r:
            power = power * log_abs >> wp
            at += 1
        total += ((weight << shift) * power >> wp) * values[m - r]
    return sign * total, 2 * wp


def cl_m(m: int, z, policy: PrecisionPolicy):
    """One-valued CL_m: total on P^1(C), real-valued, inversion-(anti)symmetric;
    the one-term ``cl_apply``."""
    return cl_apply(m, ((1, z),), policy)


def cl_apply(m: int, terms, policy: PrecisionPolicy):
    """Linear extension: sum of coeff * CL_m(value) over (coefficient, value)
    pairs, values as ``_cl_fixed`` takes them, rational coefficients.

    The sum is exact in ints from the kernel on: with L the lcm of the
    coefficients' denominators, each c * L * core is shifted to the widest
    scale of the terms, and the total over L is rounded once to the context
    precision (``_rounded``).  So the error is counted per term: each core
    is within 2^_GUARD_BITS units of 2^-``policy.fixed_bits``, that is
    2^-prec for the context's prec bits, of CL_m at the argument it was
    handed (the budget the guard bits hold; a few units, measured), and the
    sum is within 2^-prec sum |c| of sum c CL_m(value), plus the one final
    rounding, at most half an ulp of the result.
    """
    ctx = policy.context
    parts = [(Fraction(c), *_cl_fixed(m, value, policy)) for c, value in terms]
    den = lcm(*(c.denominator for c, _, _ in parts))
    scale = max((s for _, _, s in parts), default=0)
    total = sum(c.numerator * (den // c.denominator) * t << (scale - s) for c, t, s in parts)
    return ctx.make_mpf(_rounded(total, scale, ctx.prec, den))


# ---------------------------------------------------------------------------
# Polynomial roots
# ---------------------------------------------------------------------------

# Durand-Kerner sweeps in floats before giving up on seeds
_FLOAT_SWEEPS = 100
# bits the fixed-point root sweeps carry beyond policy.fixed_bits
_ROOT_GUARD_BITS = 8
# a sweep that moves no root by more than this many units ends the iteration
_ROOT_STEP_UNITS = 16


def _float_roots(descending: Sequence) -> Optional[List[complex]]:
    """Durand-Kerner in Python complex floats, with the start
    (0.4 + 0.9i)^k and an in-place update, until a sweep moves no root by
    more than 2^-40 of the largest root.

    None when a coefficient is not finite or the leading one is 0 as a
    float, or when no sweep of the first _FLOAT_SWEEPS passes that test
    (a NaN step never does): a multiple root converges only linearly and
    stalls at float rounding, so it keeps the plain start.
    """
    coeffs = [complex(c) for c in descending]
    if not coeffs[0] or not all(map(cmath.isfinite, coeffs)):
        return None
    monic = [c / coeffs[0] for c in coeffs]
    roots = [(0.4 + 0.9j) ** k for k in range(len(coeffs) - 1)]
    for _ in range(_FLOAT_SWEEPS):
        step = 0.0
        for i, p in enumerate(roots):
            x = 0j
            for c in monic:
                x = x * p + c
            for j, q in enumerate(roots):
                if j != i and p != q:
                    x /= p - q
            roots[i] = p - x
            step = max(step, abs(x))
        if step <= 2.0 ** -40 * max(map(abs, roots)):
            return roots
    return None


# a Gaussian int a + ib as the pair (a, b)
Gaussian = Tuple[int, int]


def _weierstrass_sweeps(monic: Sequence[Gaussian], z: List[Gaussian], wp: int) -> None:
    """Weierstrass (Durand-Kerner) sweeps on the approximations ``z`` in
    place, in Gaussian-int fixed point at wp bits: z_i -= p(z_i) / prod_(j
    != i) (z_i - z_j) for the monic p whose lower coefficients, descending,
    are ``monic``, each new z_i used at once.  A zero difference or product
    skips its factor or root.  Stops after the first sweep whose steps are
    all at most _ROOT_STEP_UNITS units in both parts, after the second sweep
    in a row whose largest step is no smaller than the one before, or after
    wp sweeps.  A simple root converges quadratically; a k-fold one
    converges linearly (by (k - 1)/k a sweep) to within about 2^(-wp/k) of
    it, where its steps stop shrinking.
    """
    one = 1 << wp
    last, stalls = None, 0
    for _ in range(wp):
        step = 0
        for i, (x, y) in enumerate(z):
            pr, pi = one, 0
            for cr, ci in monic:
                pr, pi = ((pr * x - pi * y) >> wp) + cr, ((pr * y + pi * x) >> wp) + ci
            qr, qi = one, 0
            for u, v in z:
                if u != x or v != y:
                    dr, di = x - u, y - v
                    qr, qi = (qr * dr - qi * di) >> wp, (qr * di + qi * dr) >> wp
            den = qr * qr + qi * qi
            if den:
                sr, si = ((pr * qr + pi * qi) << wp) // den, ((pi * qr - pr * qi) << wp) // den
                z[i] = x - sr, y - si
                step = max(step, abs(sr), abs(si))
        if step <= _ROOT_STEP_UNITS:
            return
        stalls = stalls + 1 if last is not None and step >= last else 0
        if stalls == 2:
            return
        last = step


def _ceil_sqrt(n: int) -> int:
    r = isqrt(n)
    return r + (r * r < n)


def _certify(
    a: Sequence[Gaussian], z: Sequence[Gaussian], wp: int, policy: PrecisionPolicy
) -> List[Root]:
    """The roots of p = sum a[i] x^i (Gaussian-int coefficients), certified
    from the approximations z_j = (x + iy) / 2^wp, at ``policy.fixed_bits``.

    W_j = p(z_j) / (a_n prod_(k != j) (z_j - z_k)) is computed exactly.
    p / a_n is the characteristic polynomial of diag(z) - W 1^T, so by
    Gerschgorin's theorem on its rows the roots lie in the disks
    D(z_j - W_j, (n-1)|W_j|), k in each connected component of k disks
    (Carstensen, Numer. Math. 1991).  Each disk is put on the grid of 2^-wp
    (its center moved by under a unit per part, its radius rounded up plus
    2, so it contains the exact disk), which keeps those counts.  A component of k disks comes back as its centroid k times, with
    a radius over the whole component, if that is at most
    2^(-prec/k) max(1, |centroid|) for the context's prec bits; coincident
    approximations, or a wider component, raise RootFindingError.
    """
    n, ctx = len(z), policy.context
    disks = []
    for j, (x, y) in enumerate(z):
        pr, pi = a[n]  # 2^(wp n) p(z_j), by Horner's rule
        for i in range(n - 1, -1, -1):
            shift = wp * (n - i)
            pr, pi = pr * x - pi * y + (a[i][0] << shift), pr * y + pi * x + (a[i][1] << shift)
        mr, mi = a[n]  # 2^(wp (n-1)) a_n prod_(k != j) (z_j - z_k), so 2^wp W_j = P / M
        for u, v in z[:j] + z[j + 1 :]:
            mr, mi = mr * (x - u) - mi * (y - v), mr * (y - v) + mi * (x - u)
        norm = mr * mr + mi * mi
        if not norm:
            raise RootFindingError(f"coincident approximations at {from_fixed_pair(x, y, wp, ctx)}")
        radius = _ceil_sqrt(-(-((n - 1) ** 2) * (pr * pr + pi * pi) // norm)) + 2
        disks.append((x - (pr * mr + pi * mi) // norm, y - (pi * mr - pr * mi) // norm, radius))
    label = list(range(n))  # connected components, one label each
    for i, j in itertools.combinations(range(n), 2):
        (xi, yi, ri), (xj, yj, rj) = disks[i], disks[j]
        if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
            label = [label[i] if c == label[j] else c for c in label]
    bits, shift = policy.fixed_bits, wp - policy.fixed_bits
    roots = []
    for c in set(label):
        members = [d for d, l in zip(disks, label) if l == c]
        k = len(members)
        cx, cy = sum(d[0] for d in members) // k, sum(d[1] for d in members) // k
        spread = max(_ceil_sqrt((cx - x) ** 2 + (cy - y) ** 2) + r for x, y, r in members)
        radius = -(-spread >> shift) + 1  # plus the rounding to nearest below
        x, y = (cx >> (shift - 1)) + 1 >> 1, (cy >> (shift - 1)) + 1 >> 1
        if log2(radius) > bits - ctx.prec / k + max(0.0, _log2_abs(x, y, bits)):
            raise RootFindingError(
                f"no certified cluster of {k} roots near {from_fixed_pair(x, y, bits, ctx)}: "
                f"radius 2^{log2(radius) - bits:.1f}"
            )
        roots += [Root(x, y, bits, radius)] * k
    return sorted(roots)


def poly_roots(coefficients: Sequence, policy: PrecisionPolicy) -> List[Root]:
    """All complex roots (with multiplicity) of sum coefficients[i] * x^i,
    certified, as ``Root`` pairs at ``policy.fixed_bits`` sorted by (re, im).

    The coefficients count at their exact values (``exact_complex``; a
    non-finite one raises DomainError), so each enclosure holds for the
    polynomial as given.  ``_float_roots`` seeds ``_weierstrass_sweeps`` at
    wp = ``policy.fixed_bits`` plus _ROOT_GUARD_BITS bits.  Where it gives
    no seeds (a multiple root, or coefficients beyond float range) the start
    is (0.4 + 0.9i)^k times 2^e, near the circle of radius 2^e, with e =
    round(log2|a_0 / a_n| / n) the roots' mean size in bits (0 when a_0 =
    0), but at least -wp/2 so that the start points stay apart on the grid.
    ``_certify`` alone decides success: a k-fold cluster comes back as its
    centroid k times, or RootFindingError names it.  The grid is absolute,
    so roots much closer together than 2^-fixed_bits form one cluster.
    """
    coeffs = [exact_complex(c) for c in coefficients]
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    if len(coeffs) < 2:
        raise DomainError("poly_roots needs degree >= 1 with nonzero leading coefficient")
    wp = policy.fixed_bits + _ROOT_GUARD_BITS
    den = lcm(*(c.denominator for pair in coeffs for c in pair))
    a = [(int(re * den), int(im * den)) for re, im in coeffs]
    ar, ai = a[-1]
    norm = ar * ar + ai * ai
    # b / a_n = b conj(a_n) / |a_n|^2 at wp bits, for the lower coefficients b, descending
    monic = [
        ((br * ar + bi * ai << wp) // norm, (bi * ar - br * ai << wp) // norm) for br, bi in a[-2::-1]
    ]
    try:
        seeds = _float_roots([complex(re / den, im / den) for re, im in a[::-1]])
    except OverflowError:
        seeds = None
    shift = wp  # each seed s enters as floor(s 2^shift)
    if seeds is None:
        br, bi = a[0]
        if br or bi:
            e = round((log2(br * br + bi * bi) - log2(norm)) / (2 * (len(a) - 1)))
            shift += max(e, -(wp // 2))
        seeds = [(0.4 + 0.9j) ** k for k in range(len(a) - 1)]
    z = [fixed_pair(s, shift) for s in seeds]
    _weierstrass_sweeps(monic, z, wp)
    return _certify(a, z, wp, policy)
