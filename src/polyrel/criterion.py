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

The kernel test specializes on poly's integer form.  Once per call it takes
every non-constant argument's num and den as IntPolys (``RatFunc.cleared``);
each draw then evaluates them with ``poly.int_value`` against one power
table per variable, shared by all arguments, and merges the arguments by
their exact values into (coefficient, value) pairs, dropping coefficients
that cancel.  That is the merge FormalSum.specialize followed by the
FormalSum constructor performs, without building a constant RatFunc per
argument, so the support, the functionals drawn on it and every witness are
the same.  The only other clearing here is of the functionals and of a
specialized sum's coefficients (``DualFunctional.cleared``, ``FactoredSum``),
vectors rather than polynomials.

Each trial factors its specialized values once: a FactoredSum holds the
integer exponent vectors of x and 1 - x for every term, the coefficients
cleared to integers over their common denominator, and the sorted prime
support the random functionals are drawn on.  The pairings against that
trial's functionals then run entirely in Python integers, with a single
Fraction built for each pairing's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .exact import DomainError, SplitMix64, factor_int, factor_rational, random_rational
from .formal import FormalSum
from .poly import int_value, power_table
from .tensor import add_product, sym_power, wedge

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
    """Rational linear functional on prime coordinates (0 on unseen primes)."""

    __slots__ = ("values",)

    def __init__(self, values: Mapping[int, Fraction]):
        self.values = {int(p): Fraction(v) for p, v in values.items() if v != 0}

    def cleared(self, support: Tuple[int, ...]) -> Tuple[int, List[int]]:
        """(d, [d * value(p) for p in support]) with d the lcm of the denominators."""
        d = lcm(*(v.denominator for v in self.values.values()))
        out = []
        for p in support:
            v = self.values.get(p)
            out.append(0 if v is None else v.numerator * (d // v.denominator))
        return d, out

    def __repr__(self) -> str:
        return f"DualFunctional({self.values})"


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def _constant_terms(s) -> List[Tuple[Fraction, Fraction]]:
    """Normalize input to (coefficient, rational value) pairs."""
    out = []
    if isinstance(s, FormalSum):
        for c, a in s:
            if not a.is_constant():
                raise DomainError("beta_pairing needs a specialized (constant) sum")
            out.append((c, a.constant_value()))
    else:
        for c, v in s:
            out.append((Fraction(c), Fraction(v)))
    return out


def _log_pair(x: Fraction) -> Tuple[Dict[int, int], Dict[int, int]]:
    """log_vector(x) and log_vector(1 - x) for a rational x other than 0 and 1.

    With x = a/b in lowest terms, 1 - x = (b - a)/b is in lowest terms too,
    so b is factored once for both and neither needs a Fraction.
    """
    a, b = x.numerator, x.denominator
    fx, fw = factor_int(abs(a)), factor_int(abs(b - a))
    for p, e in factor_int(b).items():
        fx[p] = fw[p] = -e
    return fx, fw


class FactoredSum:
    """A sum of constant arguments in integer prime coordinates, factored once.

    Built from a FormalSum over constants or from (coeff, rational) pairs.
    ``support`` is the sorted tuple of primes dividing some x or 1 - x.  Each
    term is (a, xv, wv): the coefficient cleared to the integer a over
    ``scale``, the lcm of the coefficient denominators, and the exponent
    vectors of x and 1 - x as tuples of (index into ``support``, exponent).
    An argument 0 is a domain error; an argument 1 is skipped (1 - x = 0 has
    no prime vector, so it pairs to zero by convention).
    """

    __slots__ = ("terms", "scale", "support")

    def __init__(self, s):
        factored = []
        for c, x in _constant_terms(s):
            if x == 0:
                raise DomainError("beta_pairing argument 0 is outside the domain")
            if x == 1:
                continue
            factored.append((c, *_log_pair(x)))
        support = sorted({p for _, fx, fw in factored for p in (*fx, *fw)})
        index = {p: i for i, p in enumerate(support)}
        scale = lcm(*(c.denominator for c, _, _ in factored))
        self.terms = tuple(
            (
                c.numerator * (scale // c.denominator),
                tuple((index[p], e) for p, e in fx.items()),
                tuple((index[p], e) for p, e in fw.items()),
            )
            for c, fx, fw in factored
        )
        self.scale = scale
        self.support = tuple(support)


def beta_pairing(s, m: int, theta: DualFunctional, phi: DualFunctional, psi: DualFunctional) -> Fraction:
    """Exact pairing of the weight-m tensor of ``s`` with theta^(m-2) (phi ^ psi).

    ``s`` is a FormalSum over constants, (coeff, rational) pairs, or a
    FactoredSum built from either (callers pairing one sum against many
    functionals factor it once).  The result is sum_x coeff * theta(log
    x)^(m-2) * (phi(log x) psi(log(1-x)) - phi(log(1-x)) psi(log x)).
    Arguments equal to 1 contribute zero by convention (1-x = 0 has no prime
    vector) and are skipped; an argument equal to 0 is a domain error.

    The sum runs in integers: each functional is cleared over the lcm of its
    own denominators (d_theta, d_phi, d_psi), and the total is divided once
    by scale * d_theta^(m-2) * d_phi * d_psi at the end.
    """
    if m < 2:
        raise DomainError("beta pairing needs m >= 2")
    fs = s if isinstance(s, FactoredSum) else FactoredSum(s)
    dt, th = theta.cleared(fs.support)
    dp, ph = phi.cleared(fs.support)
    dq, ps = psi.cleared(fs.support)
    k = m - 2
    total = 0
    for a, xv, wv in fs.terms:
        tv = px = qx = 0
        for i, e in xv:
            tv += th[i] * e
            px += ph[i] * e
            qx += ps[i] * e
        if k and not tv:
            continue
        pw = qw = 0
        for i, e in wv:
            pw += ph[i] * e
            qw += ps[i] * e
        total += a * tv ** k * (px * qw - pw * qx)
    return Fraction(total, fs.scale * dt ** k * dp * dq)


def expand_tensor(s, m: int) -> Dict[Tuple, Fraction]:
    """The reference expansion of the weight-m tensor, for any m >= 2.

    Sums coeff * (log x)^(m-2) (x) (log x ^ log(1-x)) as a polyrel.tensor
    dict.  Keys are (sym_part, wedge_pair): sym_part is a sorted tuple of m-2
    primes, wedge_pair an ordered prime pair p < q.  The sum is in the kernel
    iff the expansion is empty; beta_pairing is its contraction with
    theta^(m-2) (phi ^ psi).
    """
    if m < 2:
        raise DomainError("tensor expansion needs m >= 2")
    out: Dict[Tuple, Fraction] = {}
    for coeff, x in _constant_terms(s):
        if x == 0:
            raise DomainError("tensor expansion argument 0 is outside the domain")
        if x == 1:
            continue
        v = log_vector(x)
        add_product(out, sym_power(v, m - 2), wedge(v, log_vector(1 - x)), coeff)
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


def _random_functional(support: Tuple[int, ...], rng: SplitMix64, height: int) -> DualFunctional:
    for _ in range(64):
        values = {p: rng.next_int(-height, height) for p in support}
        if any(values.values()):
            return DualFunctional(values)
    return DualFunctional({support[0]: Fraction(1)}) if support else DualFunctional({})


def _integer_specializer(s: FormalSum) -> Tuple[Tuple[str, ...], Callable]:
    """The specialization ``kernel_test`` draws, planned once for the sum ``s``.

    Returns ``s.variables()`` and a function of a full binding of them.  The
    function gives the value-merged (coefficient, value) pairs of the
    specialized sum, or None when the binding is degenerate: some
    non-constant argument is a pole, 0/0, 0 or 1 there (constant arguments
    pass through as they are).  Arguments whose values coincide merge into
    one pair and a coefficient that cancels drops out, as the FormalSum
    constructor merges equal constants.

    Each non-constant argument is held as ``a.cleared()``, with exponents
    restricted to the variables it has positive degree in.  Per binding,
    each variable v = a/b gets one power table a^e b^(D-e)
    (``poly.power_table``), D its largest degree anywhere in the sum, and
    every argument reads those tables through ``poly.int_value``.
    Homogenizing to D multiplies an argument's numerator and denominator by
    the same nonzero product of powers of the b's, so their ratio is its
    value.
    """
    constants: Dict[Fraction, Fraction] = {}
    args = []
    degree: Dict[str, int] = {}
    for c, a in s:
        # the largest exponent of each of a's variables, num and den together
        top = [max(column) for column in zip(*a.num.terms, *a.den.terms)]
        live = [i for i, e in enumerate(top) if e]
        if not live:
            constants[a.constant_value()] = c  # s holds no two equal constants
            continue
        for i in live:
            v = a.vars[i]
            degree[v] = max(degree.get(v, 0), top[i])
        num, den = (
            {tuple([exp[i] for i in live]): n for exp, n in p.items()} for p in a.cleared()
        )
        args.append((c, [a.vars[i] for i in live], num, den))
    variables = tuple(sorted(degree))
    index = {v: k for k, v in enumerate(variables)}
    planned = [(c, [index[v] for v in names], num, den) for c, names, num, den in args]

    def specialize(binding: Mapping[str, Fraction]):
        tables = [power_table(binding[v], degree[v]) for v in variables]
        merged = dict(constants)
        for c, idx, num, den in planned:
            arg_tables = [tables[k] for k in idx]
            d = int_value(den, arg_tables)
            if not d:
                return None  # pole or 0/0
            n = int_value(num, arg_tables)
            if not n or n == d:
                return None  # 0 or 1
            q = Fraction(n, d)
            prev = merged.get(q)
            total = c if prev is None else prev + c
            if total:
                merged[q] = total
            else:
                del merged[q]
        return [(c, q) for q, c in merged.items()]

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
    """
    if trials < 1 or functionals < 1:
        raise DomainError(
            f"kernel test needs trials >= 1 and functionals >= 1 (got {trials}, {functionals})"
        )
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
            pairs = specialize(binding)
            if pairs is not None:
                break
        else:
            raise DomainError(
                f"no non-degenerate specialization found after 300 tries (trial {r})"
            )
        factored = FactoredSum(pairs)
        support = factored.support
        for k in range(functionals):
            fun_rng = root.split("fun", r, k)
            theta = _random_functional(support, fun_rng, height)
            phi = _random_functional(support, fun_rng, height)
            psi = _random_functional(support, fun_rng, height)
            value = beta_pairing(factored, m, theta, phi, psi)
            if value != 0:
                witness = {
                    "specialization": {v: str(q) for v, q in binding.items()},
                    "theta": {p: str(c) for p, c in theta.values.items()},
                    "phi": {p: str(c) for p, c in phi.values.items()},
                    "psi": {p: str(c) for p, c in psi.values.items()},
                    "value": str(value),
                    "trial": r,
                    "functional_index": k,
                }
                return Verdict("fail", witness, meta)
    return Verdict("pass", None, meta)
