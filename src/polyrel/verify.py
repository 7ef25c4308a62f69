"""Numeric verification drivers: equation sums, preimage families, roots.

All drivers sample complex points from the annulus 0.2 < |z| < 5 (excluding
a small disk around 1), resample on degeneracy, and test vanishing against
the policy tolerance 10^(-P + slack).  Sampling is driven by split PRNG
streams, one per sample index, so verdicts do not depend on evaluation
order.

A sum's arguments are evaluated through its ArgumentPlan
(``FormalSum.plan``), the one the kernel test evaluates at rational points,
in Python-int fixed point from the sampled point to the sum: each monomial
and each distinct polynomial once per point, one complex division per
argument into the fixed-point pair CL_m's kernel takes, and ``cl_apply``
summing the weighted kernel values in ints and rounding the sum once.

The preimage families take the same path.  Each term's cross ratio is
built once per point pattern (which positions are infinite, which hold the
same point, which hold phi of a point) by ``ratfunc.cross_ratio``, and
evaluated by ``_evaluate_terms`` at its points' fixed-point pairs: the
certified roots of ``preimages`` as they come, sampled points at their
exact values.  Each verdict is one ``cl_apply`` sum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .catalog import EquationSpec, get_equation
from .criterion import Verdict
from .exact import DomainError, SplitMix64
from .formal import FormalSum
from .numeric import (
    PrecisionPolicy,
    cl_apply,
    exact_complex,
    fixed_pair,
    fixed_width,
    poly_roots,
)
from .poly import MultiPoly
from .ratfunc import INFINITY, POLE, RatFunc, _heu_gcd, cross_ratio

__all__ = [
    "sample_complex",
    "verify_numeric",
    "verify_numeric_sum",
    "verify_dilog_general",
    "verify_trilog_theorem",
    "verify_wojtkowiak",
    "WOJTKOWIAK_TERMS",
    "verify_fourlog_numeric",
    "preimages",
    "random_phi",
]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_R_LO, _R_HI = 0.2, 5.0


def sample_complex(rng: SplitMix64, ctx):
    """One point from the annulus 0.2 < |z| < 5, excluding |z - 1| < 0.1."""
    while True:
        r = math.exp(math.log(_R_LO) + rng.next_unit() * (math.log(_R_HI) - math.log(_R_LO)))
        theta = 2 * math.pi * rng.next_unit()
        z = complex(r * math.cos(theta), r * math.sin(theta))
        if abs(z - 1) < 0.1:
            continue
        return ctx.mpc(z.real, z.imag)


@lru_cache(maxsize=None)
def _degeneracy_bounds(wp: int) -> Tuple[int, int]:
    """|x|^2 bounds (1e-8)^2 and (1e8)^2 of ``_evaluate_terms``, scaled by
    2^(2 wp)."""
    return math.ceil(Fraction(1e-8) ** 2 * 4**wp), 10**16 << 2 * wp


def _evaluate_terms(s: FormalSum, binding: Dict[str, object], policy: PrecisionPolicy):
    """The terms of ``s`` at a complex point, from its ArgumentPlan; None
    signals a degenerate draw.

    ``binding`` maps each variable to a number ``numeric.fixed_pair``
    floors at ``policy.fixed_bits``: a complex number (an mpc included), a
    fixed-point pair (x, y, w) standing for (x + iy) / 2^w, or a root of
    ``preimages``.  Runs in Python-int fixed point at that width: the
    powers of each variable, each of the plan's monomials once, each
    distinct polynomial once (``ArgumentPlan.values``) and one complex
    division per argument.  The draw is degenerate if some argument has a
    pole there or a value x with |x| < 1e-8, |x| > 1e8 or |x - 1| < 1e-8.
    Constant arguments come first, as Fractions, then the others in sum
    order, each as the fixed-point pair (x, y, wp) that ``cl_apply`` takes,
    x + iy = floor of the quotient times 2^wp: an argument far from the unit
    circle is divided again at the wider width ``numeric.fixed_width``
    gives it, the rule ``numeric._fixed_argument`` applies to any number.
    """
    plan = s.plan()
    wp = policy.fixed_bits
    one = 1 << wp
    rows = []
    for v, d in zip(plan.variables, plan.degrees):
        x, y = fixed_pair(binding[v], wp)
        row = [(one, 0), (x, y)]
        for _ in range(d - 1):
            a, b = row[-1]
            row.append(((a * x - b * y) >> wp, (a * y + b * x) >> wp))
        rows.append(row)
    mono_r, mono_i = [], []
    for exp in plan.monomials:
        r, i = one, 0
        for row, e in zip(rows, exp):
            if e:
                a, b = row[e]
                r, i = (r * a - i * b) >> wp, (r * b + i * a) >> wp
        mono_r.append(r)
        mono_i.append(i)
    val_r, val_i = plan.values(mono_r), plan.values(mono_i)
    small, large = _degeneracy_bounds(wp)
    out: List[Tuple[Fraction, object]] = list(plan.constants)
    for c, i, j in plan.args:
        dr, di = val_r[j], val_i[j]
        den = dr * dr + di * di
        if not den:
            return None
        nr, ni = val_r[i], val_i[i]
        qr, qi = nr * dr + ni * di, ni * dr - nr * di  # x = q / den
        xr, xi = (qr << wp) // den, (qi << wp) // den
        mag = xr * xr + xi * xi
        if mag < small or mag > large or (xr - one) ** 2 + xi * xi < small:
            return None
        width = fixed_width(max(abs(xr).bit_length(), abs(xi).bit_length()) - wp, policy)
        if width > wp:
            xr, xi = (qr << width) // den, (qi << width) // den
        out.append((c, (xr, xi, width)))
    return out


def _cl_vanishes(weight, points, policy, seed, label, tries, attempt, degenerate, meta) -> Verdict:
    """CL_weight vanishes at ``points`` >= 1 samples to ``policy``'s tolerance.

    Sample i is drawn from the stream ``SplitMix64(seed).split(*label, i)``
    by up to ``tries`` calls of ``attempt(rng)``, which gives None on a
    degenerate draw, else (terms, witness keys locating the sample); the
    message ``degenerate.format(i=i)`` is raised when every try fails.  The
    first sample at or above the tolerance fails the verdict; a pass records
    the largest value seen.
    """
    if points < 1:
        raise DomainError(f"numeric verification needs points >= 1 (got {points})")
    root = SplitMix64(seed)
    worst = policy.context.mpf(0)
    for i in range(points):
        rng = root.split(*label, i)
        for _ in range(tries):
            drawn = attempt(rng)
            if drawn is not None:
                break
        else:
            raise DomainError(degenerate.format(i=i))
        terms, where = drawn
        value = abs(cl_apply(weight, terms, policy))
        worst = max(worst, value)
        if value >= policy.tolerance:
            return Verdict("fail", {**where, "value": float(value), "index": i}, meta)
    return Verdict("pass", None, {**meta, "max_abs_value": float(worst)})


def verify_numeric_sum(
    s: FormalSum,
    weight: int,
    points: int = 20,
    policy: PrecisionPolicy | None = None,
    seed: int = 0,
) -> Verdict:
    """CL_weight vanishes on the sum at ``points`` >= 1 random complex samples."""
    policy = policy or PrecisionPolicy(50)
    ctx = policy.context
    variables = s.variables()

    def attempt(rng):
        binding = {v: sample_complex(rng, ctx) for v in variables}
        terms = _evaluate_terms(s, binding, policy)
        if terms is None:
            return None
        return terms, {"point": {v: str(binding[v]) for v in variables}}

    meta = {"points": points, "seed": seed, "precision": policy.working_digits}
    message = "persistent degeneracy while sampling point {i}"
    return _cl_vanishes(weight, points, policy, seed, ("pt",), 80, attempt, message, meta)


def verify_numeric(
    eq: EquationSpec,
    points: int = 20,
    policy: PrecisionPolicy | None = None,
    seed: int = 0,
) -> Verdict:
    """Numeric verification of a catalog entry (root-bound for the 4-log family)."""
    if eq.name.startswith("fourlog_n"):
        n = int(eq.name.rsplit("n", 1)[1])
        return verify_fourlog_numeric(n, points=points, policy=policy, seed=seed)
    return verify_numeric_sum(eq.sum, eq.weight, points=points, policy=policy, seed=seed)


# ---------------------------------------------------------------------------
# Preimages and cross-ratio terms
# ---------------------------------------------------------------------------

def _univariate_coeffs(p: MultiPoly, var: str) -> List[Fraction]:
    """The coefficients of p in ``var``, one of its variables, lowest first."""
    if any(p.degree_in(v) for v in p.vars if v != var):
        raise DomainError(f"polynomial is not univariate in {var}")
    i = p.vars.index(var)
    out = [Fraction(0)] * (p.degree_in(var) + 1)
    for exp, c in p.terms.items():
        out[exp[i]] += c
    return out


def _phi_variable(phi: RatFunc) -> Tuple[str, int]:
    """The variable of a one-variable map phi and its degree max(deg num, deg den)."""
    var = next(v for v in phi.vars if phi.num.degree_in(v) or phi.den.degree_in(v))
    return var, max(phi.num.degree_in(var), phi.den.degree_in(var))


def preimages(phi: RatFunc, w, policy: PrecisionPolicy) -> List:
    """phi^(-1)(w) with multiplicity, including infinite preimages.

    ``w`` may be a complex value (an mpc included), a Fraction, or INFINITY.
    The target polynomial num - w den is built from w's exact value as
    Gaussian rationals, and its finite roots come back as the certified
    ``numeric.Root`` pairs of ``poly_roots``.  The degree of phi is
    max(deg num, deg den); degree drop in the target polynomial puts the
    missing preimages at infinity.
    """
    var, deg = _phi_variable(phi)
    num_c = _univariate_coeffs(phi.num, var)
    den_c = _univariate_coeffs(phi.den, var)
    if w is INFINITY:
        coeffs = [(c, 0) for c in den_c]
    else:
        wr, wi = exact_complex(w)
        pairs = itertools.zip_longest(num_c, den_c, fillvalue=0)
        coeffs = [(cn - wr * cd, -wi * cd) for cn, cd in pairs]
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    finite = poly_roots(coeffs, policy) if len(coeffs) >= 2 else []
    inf_mult = deg - (len(coeffs) - 1 if coeffs else 0)
    return finite + [INFINITY] * max(inf_mult, 0)


class _Spot(NamedTuple):
    """A finite point of a cross-ratio term: its fixed-point pair, which also
    labels it, and whether the position holds phi of the point."""

    pair: Tuple[int, int, int]
    mapped: bool = False


def _spot(p, policy: PrecisionPolicy):
    """INFINITY, or the ``_Spot`` of a certified root or of any number
    ``numeric.exact_complex`` reads, floored at ``policy.fixed_bits`` by
    ``numeric.fixed_pair``."""
    if p is INFINITY:
        return p
    wp = policy.fixed_bits
    return _Spot((*fixed_pair(p, wp), wp))


def _image(phi: RatFunc, p, policy: PrecisionPolicy):
    """phi(p): substituted into the term's cross ratio at a finite point;
    at infinity, phi(1/t) at t = 0 exactly."""
    if p is not INFINITY:
        return p._replace(mapped=True)
    inverted = phi.substitute({u: 1 / RatFunc.var(u) for u in phi.vars})
    value = inverted.evaluate({u: Fraction(0) for u in phi.vars})
    return INFINITY if value is POLE else _spot(value, policy)


def _family(phi: RatFunc, w, policy: PrecisionPolicy) -> List:
    return [_spot(r, policy) for r in preimages(phi, w, policy)]


@lru_cache(maxsize=256)
def _cross_ratio_pattern(pattern: tuple, phi: RatFunc | None) -> FormalSum:
    """The cross ratio of four positions, each INFINITY or (k, mapped): the
    variable p<k> of the k-th distinct point, or phi of it.  The conventions
    of ``ratfunc.cross_ratio`` hold (infinite points drop their factors,
    coincident pairs give 0, INFINITY or 1).  It comes back as a one-term
    FormalSum, a constant one included, and INFINITY, where CL_m vanishes,
    as the empty sum."""
    points = []
    for p in pattern:
        if p is not INFINITY:
            k, mapped = p
            p = RatFunc.var(f"p{k}")
            p = phi.substitute({u: p for u in phi.vars}) if mapped else p
        points.append(p)
    cr = cross_ratio(*points)
    return FormalSum() if cr is INFINITY else FormalSum([(1, cr)])


def _cross_ratio_terms(terms, phi: RatFunc, policy: PrecisionPolicy) -> List:
    """The (coefficient, value) pairs ``cl_apply`` takes for terms
    (c, four points from ``_spot`` or ``_image``): each term's pattern,
    equal pairs sharing a variable, evaluated by ``_evaluate_terms``.  A
    degenerate value raises DomainError."""
    out = []
    for c, points in terms:
        labels: Dict[tuple, int] = {}
        pattern = []
        mapped = None  # phi, once a position holds phi of a point
        for p in points:
            if p is not INFINITY:
                mapped = phi if p.mapped else mapped
                p = (labels.setdefault(p.pair, len(labels)), p.mapped)
            pattern.append(p)
        binding = {f"p{k}": pair for pair, k in labels.items()}
        evaluated = _evaluate_terms(_cross_ratio_pattern(tuple(pattern), mapped), binding, policy)
        if evaluated is None:
            raise DomainError(f"degenerate cross ratio in a preimage family: {pattern}")
        out += [(c * one, value) for one, value in evaluated]
    return out


# ---------------------------------------------------------------------------
# Preimage-family verifications
# ---------------------------------------------------------------------------

def _error_verdict(weight: int, terms, phi: RatFunc, policy: PrecisionPolicy, **meta) -> Verdict:
    """Pass iff |sum c CL_weight(cr(points))| over the terms, one
    ``cl_apply`` sum, is below the tolerance; meta and a failing witness
    record it as the error."""
    err = abs(cl_apply(weight, _cross_ratio_terms(terms, phi, policy), policy))
    meta = {**meta, "precision": policy.working_digits, "error": float(err)}
    if err < policy.tolerance:
        return Verdict("pass", None, meta)
    return Verdict("fail", {"error": float(err)}, meta)


def verify_dilog_general(
    phi: RatFunc, alpha, B, C, D, policy: PrecisionPolicy | None = None
) -> Verdict:
    """sum over preimages CL_2(cr(alpha, beta, gamma, delta)) equals
    deg(phi) * CL_2(cr(phi(alpha), B, C, D))."""
    policy = policy or PrecisionPolicy(50)
    _, deg = _phi_variable(phi)
    a = _spot(alpha, policy)
    families = [_family(phi, w, policy) for w in (B, C, D)]
    terms = [(1, (a, *pts)) for pts in itertools.product(*families)]
    terms.append((-deg, (_image(phi, a, policy), *(_spot(w, policy) for w in (B, C, D)))))
    return _error_verdict(2, terms, phi, policy, degree=deg)


def verify_trilog_theorem(
    phi: RatFunc,
    A_pts: Sequence,
    B_pts: Sequence,
    C_pts: Sequence,
    D_pts: Sequence,
    policy: PrecisionPolicy | None = None,
) -> Verdict:
    """The alternating 16-fold combination over preimage families vanishes."""
    policy = policy or PrecisionPolicy(50)
    _, deg = _phi_variable(phi)
    targets = (A_pts, B_pts, C_pts, D_pts)
    pre = [[_family(phi, p, policy) for p in pts] for pts in targets]
    terms = []
    for idx in itertools.product((0, 1), repeat=4):
        sign = (-1) ** sum(idx)
        terms += [(sign, pts) for pts in itertools.product(*(fam[i] for fam, i in zip(pre, idx)))]
        images = tuple(_spot(pts[i], policy) for pts, i in zip(targets, idx))
        terms.append((-sign * deg, images))
    return _error_verdict(3, terms, phi, policy, degree=deg)


#: Wojtkowiak's combination for the trilogarithm of phi(x): beside
#: CL_3(cr(phi(x), C, B, A)), each entry (sign, families) adds
#: sign * CL_3(cr(x, p, q, r)) for every (p, q, r) in the product of the
#: preimage families, where "A", "B", "C" stand for phi^-1(A), phi^-1(B),
#: phi^-1(C).  Evaluated in this order, nesting the families left to right.
WOJTKOWIAK_TERMS = ((-1, "CBA"), (-1, "AAC"), (-1, "BBC"), (1, "AAB"), (1, "BBA"))


def verify_wojtkowiak(
    phi: RatFunc, A, B, C, x1, x2, policy: PrecisionPolicy | None = None
) -> Verdict:
    """The one-variable specialization is independent of x: evaluate the
    combination at two points and compare."""
    policy = policy or PrecisionPolicy(50)
    pre = {f: _family(phi, p, policy) for f, p in zip("ABC", (A, B, C))}
    images = tuple(_spot(p, policy) for p in (C, B, A))

    def terms(x, sign):
        x = _spot(x, policy)
        out = [(sign, (_image(phi, x, policy), *images))]
        for s, fams in WOJTKOWIAK_TERMS:
            out += [(sign * s, (x, *pts)) for pts in itertools.product(*(pre[f] for f in fams))]
        return out

    return _error_verdict(3, terms(x1, 1) + terms(x2, -1), phi, policy)


def verify_fourlog_numeric(
    n: int,
    points: int = 20,
    policy: PrecisionPolicy | None = None,
    seed: int = 0,
) -> Verdict:
    """Bind the weight-4 template to the preimages of random (t, u) and test
    CL_4 vanishing at ``points`` >= 1 samples; the preimage map is z^(n-1)(z-1)."""
    policy = policy or PrecisionPolicy(60)
    ctx = policy.context
    eq = get_equation(f"fourlog_n{n}")
    z = RatFunc.var("z")
    phi = z ** (n - 1) * (z - 1)
    one = 1 << policy.fixed_bits
    near = math.ceil(Fraction(1e-6) ** 2 * one**2)  # |r|^2 against (1e-6)^2

    def attempt(rng):
        tv = sample_complex(rng, ctx)
        uv = sample_complex(rng, ctx)
        xs, ys = preimages(phi, tv, policy), preimages(phi, uv, policy)
        if any(r.x**2 + r.y**2 < near or (r.x - one) ** 2 + r.y**2 < near for r in xs + ys):
            return None
        binding = {f"x{k+1}": xs[k].pair for k in range(n)}
        binding.update({f"y{k+1}": ys[k].pair for k in range(n)})
        terms = _evaluate_terms(eq.sum, binding, policy)
        if terms is None:
            return None
        return terms, {"t": str(tv), "u": str(uv)}

    meta = {"n": n, "points": points, "seed": seed, "precision": policy.working_digits}
    message = f"persistent degeneracy in weight-4 sampling, n={n}"
    return _cl_vanishes(4, points, policy, seed, ("4log", n), 60, attempt, message, meta)


#: Degree and coefficient height of ``random_phi``'s maps.
_PHI_DEGREE, _PHI_HEIGHT = 3, 5


def _squarefree(coeffs: Sequence[Fraction]) -> bool:
    """gcd(p, p') = 1 for p = sum coeffs[i] z^i of degree >= 1, exactly:
    ``ratfunc._heu_gcd`` on p with its denominators cleared."""
    den = math.lcm(*(c.denominator for c in coeffs))
    p = {(i,): int(c * den) for i, c in enumerate(coeffs) if c}
    dp = {(i - 1,): i * c for (i,), c in p.items() if i}
    return max(_heu_gcd(p, dp)[0]) == (0,)


def random_phi(rng: SplitMix64) -> RatFunc:
    """Random squarefree monic polynomial map of degree ``_PHI_DEGREE`` with
    rational coefficients of height at most ``_PHI_HEIGHT``."""
    from .exact import random_rational

    z = RatFunc.var("z")
    while True:
        coeffs = [random_rational(_PHI_HEIGHT, rng) for _ in range(_PHI_DEGREE)] + [Fraction(1)]
        if _squarefree(coeffs):
            phi = RatFunc.from_value(0)
            power = RatFunc.from_value(1)
            for c in coeffs:
                phi = phi + power * c
                power = power * z
            return phi
