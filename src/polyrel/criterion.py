"""Symbolic kernel test for functional equations.

The weight-m criterion maps [x] to x^(sym m-2) (x ^ (1-x)) inside
Sym^(m-2) Q(x)* tensor Lambda^2 Q(x)*.  After specializing the equation's
variables at rational points, multiplicative structure becomes prime
factorization (signs and roots of unity are torsion and get dropped), and
zero-ness of the tensor is certified by pairing against random rational dual
functionals: theta applied through the symmetric power, (phi, psi) through
the wedge.  A true kernel element passes every pairing exactly; a non-member
is caught with high probability (Schwartz-Zippel over the functional
values), and every failure carries a reproducible witness.

The kernel test runs in Python ints from the rational draw to the pairing.
It evaluates the sum's ArgumentPlan (``FormalSum.plan``, built once per sum
and shared with the numeric drivers), which files every non-constant
argument's num and den once per distinct integer polynomial (xi7_explicit's
602 are 267 distinct ones, xi7_symmetric's 872 are 270).  Each draw
evaluates every monomial and then every distinct polynomial once, against
one power table per variable, and merges the arguments on their values as
reduced (numerator, denominator) int pairs (a gcd, the sign kept on the
numerator); constant arguments join under the same key and coefficients
that cancel drop out.  That is the merge FormalSum.specialize followed by
the FormalSum constructor performs, without building a RatFunc or a
Fraction per argument, so the support, the functionals drawn on it and
every witness are the same.

Each trial factors its specialized values once: a FactoredSum, built from
(coefficient, numerator, denominator) triples, factors each distinct
integer among the |a|, b and |b - a| of its values x = a/b once (log x and
log(1 - x) are differences of those vectors), clears the coefficients to
integers over their common denominator, and holds the sorted prime support
the random functionals are drawn on.  ``exact.factor_int`` trial-divides
only by the primes below 2^10 and hands a larger cofactor to Miller-Rabin,
so a trial's 30-bit prime cofactors cost a primality test, not a division
loop to their square root.  Each functional is drawn as a plain int list in
support order and paired by ``_pairing_total``, the one integer core, which
``beta_pairing`` also calls once it has cleared its DualFunctionals; the
kernel test builds DualFunctionals and a Fraction only for a witness.

``expand_tensor``, the full tensor the pairing contracts, expands the same
FactoredSum on polyrel.tensor's packed int keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .exact import DomainError, SplitMix64, factor_int, factor_rational, random_rational
from .formal import FormalSum
from .poly import power_table
from .tensor import add_product, bump, sym_power, wedge

__all__ = [
    "DualFunctional",
    "FactoredSum",
    "Verdict",
    "log_vector",
    "beta_pairing",
    "kernel_test",
    "expand_tensor",
]


# ---------------------------------------------------------------------------
# Additive prime coordinates
# ---------------------------------------------------------------------------

def log_vector(q: Fraction | int) -> Dict[int, int]:
    """Additive coordinates of a nonzero rational in Q tensor Q^x: a fresh
    prime -> exponent dict (the sign is torsion and is discarded)."""
    return factor_rational(q).factors


class DualFunctional:
    """Rational linear functional on prime coordinates (0 on unseen primes).

    Int values are kept as ints (the kernel test draws integer functionals);
    any other value is held as a Fraction.  Both print alike, so a witness
    reads the same either way.
    """

    __slots__ = ("values",)

    def __init__(self, values: Mapping[int, Fraction | int]):
        self.values = {
            int(p): v if type(v) is int else Fraction(v) for p, v in values.items() if v != 0
        }

    def cleared(self, support: Tuple[int, ...]) -> Tuple[int, List[int]]:
        """(d, [d * value(p) for p in support]) with d the lcm of the denominators."""
        values = self.values
        d = lcm(*(v.denominator for v in values.values()))
        if d == 1:
            return 1, [values.get(p, 0) for p in support]
        out = []
        for p in support:
            v = values.get(p)
            out.append(0 if v is None else v.numerator * (d // v.denominator))
        return d, out

    def __repr__(self) -> str:
        return f"DualFunctional({self.values})"


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def _triples(s) -> List[Tuple[Fraction, int, int]]:
    """Normalize input to (coefficient, numerator, denominator) triples.

    ``s`` is a FormalSum over constants, (coefficient, rational) pairs or
    triples already; each value is in lowest terms with a positive
    denominator.
    """
    if isinstance(s, FormalSum):
        if not all(a.is_constant() for _, a in s):
            raise DomainError("the sum is not specialized: an argument is not constant")
        s = [(c, a.constant_value()) for c, a in s]
    out = []
    for term in s:
        if len(term) == 2:
            c, v = term
            q = Fraction(v)
            term = (Fraction(c), q.numerator, q.denominator)
        out.append(term)
    return out


class FactoredSum:
    """A sum of constant arguments in integer prime coordinates, factored once.

    Built from a FormalSum over constants, from (coeff, rational) pairs or
    from (coeff, numerator, denominator) triples (see ``_triples``).  With
    x = a/b in lowest terms, 1 - x = (b - a)/b is in lowest terms too, so
    log x = log|a| - log b and log(1 - x) = log|b - a| - log b.  Each
    distinct positive integer among the |a|, b and |b - a| of the terms is
    factored once: ``vectors`` holds its exponent vector as a tuple of (index
    into ``support``, exponent), and ``support`` is the sorted tuple of
    primes dividing some x or 1 - x.  Each term is (c, ia, ib, iw): the
    coefficient cleared to the integer c over ``scale``, the lcm of the
    coefficient denominators, and the indices into ``vectors`` of |a|, b and
    |b - a|.  An argument 0 is a domain error; an argument 1 is skipped
    (1 - x = 0 has no prime vector, so it pairs to zero by convention).
    """

    __slots__ = ("terms", "vectors", "scale", "support")

    def __init__(self, s):
        ids: Dict[int, int] = {}  # distinct integer -> index into vectors
        slot = ids.setdefault
        kept = []
        for c, a, b in _triples(s):
            if not a:
                raise DomainError("argument 0 is outside the domain")
            if a == b:
                continue
            # left to right: each len(ids) counts the integers filed before it
            kept.append((c, slot(abs(a), len(ids)), slot(b, len(ids)), slot(abs(b - a), len(ids))))
        factors = [factor_int(n) for n in ids]
        support = sorted({p for f in factors for p in f})
        index = {p: i for i, p in enumerate(support)}
        scale = lcm(*(c.denominator for c, _, _, _ in kept))
        self.vectors = tuple(tuple((index[p], e) for p, e in f.items()) for f in factors)
        self.terms = tuple(
            (c.numerator * (scale // c.denominator), ia, ib, iw) for c, ia, ib, iw in kept
        )
        self.scale = scale
        self.support = tuple(support)


def _pairing_total(fs: FactoredSum, k: int, th: List[int], ph: List[int], ps: List[int]) -> int:
    """The pairing's integer core: sum_x c theta(log x)^k (phi(log x)
    psi(log(1 - x)) - phi(log(1 - x)) psi(log x)) over the FactoredSum's
    terms, c the cleared coefficients, for integer functionals given as
    their values in support order.

    Each functional is applied once to each of the FactoredSum's distinct
    integers, and a term reads log x and log(1 - x) as differences of those
    values.  A term with theta(log x) = 0 is skipped when k > 0.
    """
    tvals, pvals, qvals = [], [], []
    for vec in fs.vectors:
        t = p = q = 0
        for i, e in vec:
            t += th[i] * e
            p += ph[i] * e
            q += ps[i] * e
        tvals.append(t)
        pvals.append(p)
        qvals.append(q)
    total = 0
    for c, ia, ib, iw in fs.terms:
        tv = tvals[ia] - tvals[ib]
        if k and not tv:
            continue
        pb, qb = pvals[ib], qvals[ib]
        px, qx = pvals[ia] - pb, qvals[ia] - qb
        pw, qw = pvals[iw] - pb, qvals[iw] - qb
        total += c * tv ** k * (px * qw - pw * qx)
    return total


def beta_pairing(s, m: int, theta: DualFunctional, phi: DualFunctional, psi: DualFunctional) -> Fraction:
    """Exact pairing of the weight-m tensor of ``s`` with theta^(m-2) (phi ^ psi).

    ``s`` is a FormalSum over constants, (coeff, rational) pairs, (coeff,
    numerator, denominator) triples, or a FactoredSum built from any of them
    (callers pairing one sum against many functionals factor it once).  The
    result is sum_x coeff * theta(log x)^(m-2) * (phi(log x) psi(log(1-x)) -
    phi(log(1-x)) psi(log x)).  Arguments equal to 1 contribute zero by
    convention (1-x = 0 has no prime vector) and are skipped; an argument
    equal to 0 is a domain error.

    The sum runs in integers: each functional is cleared over the lcm of its
    own denominators (d_theta, d_phi, d_psi), ``_pairing_total`` sums the
    cleared values, and the total is divided once by
    scale * d_theta^(m-2) * d_phi * d_psi at the end.
    """
    if m < 2:
        raise DomainError("beta pairing needs m >= 2")
    fs = s if isinstance(s, FactoredSum) else FactoredSum(s)
    dt, th = theta.cleared(fs.support)
    dp, ph = phi.cleared(fs.support)
    dq, ps = psi.cleared(fs.support)
    k = m - 2
    return Fraction(_pairing_total(fs, k, th, ph, ps), fs.scale * dt ** k * dp * dq)


def expand_tensor(s, m: int) -> Dict[Tuple, Fraction]:
    """The full weight-m tensor of ``s``, anything beta_pairing takes, m >= 2.

    Sums coeff * (log x)^(m-2) (x) (log x ^ log(1-x)).  Keys are (sym_part,
    wedge_pair): a sorted tuple of m-2 primes and a prime pair p < q; values
    are Fractions.  The sum is in the kernel iff the result is empty, and
    beta_pairing is its contraction with theta^(m-2) (phi ^ psi).  It expands
    the FactoredSum's exponent vectors and cleared coefficients in ints on
    packed keys (polyrel.tensor) and names the primes, over ``scale``, at the end.
    """
    if m < 2:
        raise DomainError("tensor expansion needs m >= 2")
    fs = s if isinstance(s, FactoredSum) else FactoredSum(s)
    k = m - 2
    width = max(1, (len(fs.support) - 1).bit_length())
    packed: Dict[int, int] = {}
    for c, ia, ib, iw in fs.terms:
        log_b = dict(fs.vectors[ib])
        log_x = bump(dict(fs.vectors[ia]), log_b, -1)
        log_1mx = bump(dict(fs.vectors[iw]), log_b, -1)
        add_product(packed, sym_power(log_x, k, width), wedge(log_x, log_1mx, width), c, 2 * width)
    # a key is m fields, highest first: the sym part's k indices, then p, q
    support, mask, fields = fs.support, (1 << width) - 1, range(m - 1, -1, -1)
    out: Dict[Tuple, Fraction] = {}
    for key, c in packed.items():
        primes = tuple(support[(key >> width * j) & mask] for j in fields)
        out[(primes[:k], primes[k:])] = Fraction(c, fs.scale)
    return out


# ---------------------------------------------------------------------------
# Kernel test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of a probabilistic symbolic or numeric verification."""

    status: str  # "pass" | "fail"
    witness: Optional[dict] = None
    trials: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"status": self.status, "witness": self.witness, "trials": self.trials}


def _random_functional(n: int, rng: SplitMix64, height: int) -> List[int]:
    """The values, in support order, of a random integer functional on a
    support of n primes: n draws in [-height, height], redrawn (up to 64
    times) while all are zero, then the functional 1 on the first prime."""
    for _ in range(64):
        values = rng.ints(-height, height, n)
        if any(values):
            return values
    return [1] + [0] * (n - 1) if n else []


def _integer_specializer(s: FormalSum) -> Tuple[Tuple[str, ...], Callable]:
    """The specialization ``kernel_test`` draws, on the sum's ArgumentPlan.

    Returns ``s.variables()`` and a function of a full binding of them.  The
    function gives the value-merged (coefficient, numerator, denominator)
    triples of the specialized sum, each value in lowest terms with a
    positive denominator, or None when the binding is degenerate: some
    non-constant argument is a pole, 0/0, 0 or 1 there (constant arguments
    pass through as they are).  Arguments whose values coincide merge into
    one triple and a coefficient that cancels drops out, as the FormalSum
    constructor merges equal constants.

    Per binding, each variable v = a/b gets one power table a^e b^(D-e)
    (``poly.power_table``), D its largest degree in the sum, each of the
    plan's monomials takes its product of table entries once, and each
    distinct polynomial sums its coefficients against those
    (``ArgumentPlan.values``).  Homogenizing every variable to its D
    multiplies all values by the same nonzero product of powers of the b's,
    so an argument's numerator over its denominator is its value; dividing
    both by their gcd, the sign moved to the numerator, gives the merge key.
    """
    plan = s.plan()
    variables = plan.variables
    constants = {(q.numerator, q.denominator): c for c, q in plan.constants}

    def specialize(binding: Mapping[str, Fraction]):
        tables = [power_table(binding[v], d) for v, d in zip(variables, plan.degrees)]
        monomials = []
        for exp in plan.monomials:
            n = 1
            for t, e in zip(tables, exp):
                n *= t[e]
            monomials.append(n)
        values = plan.values(monomials)
        merged = dict(constants)
        for c, i, j in plan.args:
            d = values[j]
            if not d:
                return None  # pole or 0/0
            n = values[i]
            if not n or n == d:
                return None  # 0 or 1
            g = gcd(n, d)
            key = (n // g, d // g) if d > 0 else (-n // g, -d // g)
            prev = merged.get(key)
            total = c if prev is None else prev + c
            if total:
                merged[key] = total
            else:
                del merged[key]
        return [(c, n, d) for (n, d), c in merged.items()]

    return variables, specialize


def kernel_test(
    s: FormalSum,
    m: int,
    trials: int = 10,
    functionals: int = 5,
    height: int = 40,
    seed: int = 0,
    specialization_height: int | None = None,
) -> Verdict:
    """Probabilistic kernel membership test for a formal sum in variables.

    Runs ``trials`` independent rational specializations (resampling while
    degenerate), pairing each against ``functionals`` random dual-functional
    triples with integer values of height <= ``height``.  Passes iff every
    pairing is exactly zero; the first nonzero pairing is returned as a
    reproducible witness.  Soundness: true kernel elements always pass.
    A verdict needs evidence, so ``trials`` and ``functionals`` must be >= 1.

    Each trial factors its specialization once (``FactoredSum``) and pairs
    it against int-list functionals through ``_pairing_total``; only a
    nonzero total builds the witness's DualFunctionals, and its value is the
    total over the FactoredSum's scale, as ``beta_pairing`` gives it.
    """
    if trials < 1 or functionals < 1:
        raise DomainError(
            f"kernel test needs trials >= 1 and functionals >= 1 (got {trials}, {functionals})"
        )
    if m < 2:
        raise DomainError("beta pairing needs m >= 2")
    root = SplitMix64(seed)
    variables, specialize = _integer_specializer(s)
    spec_height = specialization_height or height
    n_trials = trials if variables else 1
    meta = {
        "trials": n_trials,
        "functionals": functionals,
        "height": height,
        "specialization_height": spec_height,
        "seed": seed,
        "weight": m,
    }
    for r in range(n_trials):
        spec_rng = root.split("spec", r)
        for _ in range(300):
            binding = {v: random_rational(spec_height, spec_rng) for v in variables}
            triples = specialize(binding)
            if triples is not None:
                break
        else:
            raise DomainError(
                f"no non-degenerate specialization found after 300 tries (trial {r})"
            )
        factored = FactoredSum(triples)
        support = factored.support
        for k in range(functionals):
            fun_rng = root.split("fun", r, k)
            draws = [_random_functional(len(support), fun_rng, height) for _ in range(3)]
            total = _pairing_total(factored, m - 2, *draws)
            if total:
                theta, phi, psi = (DualFunctional(dict(zip(support, d))) for d in draws)
                witness = {
                    "specialization": {v: str(q) for v, q in binding.items()},
                    "theta": {p: str(c) for p, c in theta.values.items()},
                    "phi": {p: str(c) for p, c in phi.values.items()},
                    "psi": {p: str(c) for p, c in psi.values.items()},
                    "value": str(Fraction(total, factored.scale)),
                    "trial": r,
                    "functional_index": k,
                }
                return Verdict("fail", witness, meta)
    return Verdict("pass", None, meta)
