"""Sparse multivariate polynomials over the rationals.

A polynomial carries a sorted tuple of variable names and a sparse map from
exponent vectors to nonzero Fraction coefficients.  The canonical term order
is graded lexicographic over the sorted variable table, which fixes a unique
leading monomial and a reproducible serialization for every polynomial.

Multiplication runs on integers: each operand is cleared to integer
coefficients over the lcm of its denominators, and each exponent vector is
packed into one int with a field per variable wide enough that no exponent
sum can carry into the next field.  Products (`packed_product`, shared
with `RatFunc.substitute`) accumulate in the same loop order as the plain
Fraction loop, removing a term whose sum cancels to zero and re-inserting it
if it reappears, so the product's term insertion order is exactly the plain
loop's.  `evaluate_in` sums in that order, so numeric values do not move in
the last bits.  Each result coefficient becomes a Fraction once, at the end.

Exact evaluation at a rational point also runs on integers.
`evaluate_ratio` clears the coefficients over their lcm, homogenizes each
point value a/b up to its variable's degree, sums integer terms against
power tables a^e b^(D-e) (`power_table`) built once per call, and returns
the value as an integer pair.  `evaluate` turns the pair into one Fraction,
and `RatFunc.evaluate` decides poles and 0/0 on the integer numerators
before building its single Fraction.  The kernel test's specialization
(`criterion`) reads the same power tables, one per variable and draw.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["MultiPoly", "grlex_key"]

Exponent = Tuple[int, ...]


def grlex_key(exp: Exponent) -> Tuple[int, Exponent]:
    """Graded-lex sort key: total degree first, then lex on exponents."""
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse polynomial with Fraction coefficients.

    Zero coefficients are never stored; the zero polynomial has an empty term
    map.  Variables are kept sorted, so two polynomials over the same
    variable set have directly comparable exponent vectors.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Fraction]):
        vs = tuple(variables)
        if list(vs) != sorted(vs):
            raise ValueError("variables must be sorted")
        cleaned = {}
        for exp, c in terms.items():
            if len(exp) != len(vs):
                raise ValueError("exponent arity mismatch")
            if c != 0:
                cleaned[tuple(exp)] = Fraction(c)
        self.vars = vs
        self.terms = cleaned
        self._hash = None

    @classmethod
    def _trusted(cls, vs: Tuple[str, ...], terms: Dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap sorted variables and nonzero Fraction terms without re-checking."""
        p = object.__new__(cls)
        p.vars = vs
        p.terms = terms
        p._hash = None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "MultiPoly":
        return MultiPoly(sorted(variables), {})

    @staticmethod
    def const(value, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = sorted(variables)
        c = Fraction(value)
        if c == 0:
            return MultiPoly(vs, {})
        return MultiPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def var(name: str, variables: Iterable[str] | None = None) -> "MultiPoly":
        vs = sorted(set(variables) | {name}) if variables else [name]
        exp = tuple(1 if v == name else 0 for v in vs)
        return MultiPoly(vs, {exp: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def leading(self) -> Tuple[Exponent, Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def content(self) -> Fraction:
        """Positive rational c with self/c integral and coprime; 0 for zero."""
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm // gcd(den_lcm, c.denominator) * c.denominator
        return Fraction(num_gcd, den_lcm)

    def embed(self, variables: Iterable[str]) -> "MultiPoly":
        """Reinterpret over a superset of variables."""
        vs = tuple(sorted(variables))
        if vs == self.vars:
            return self
        if not set(self.vars) <= set(vs):
            raise ValueError("embedding must not drop variables")
        pos = [vs.index(v) for v in self.vars]
        terms: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            new = [0] * len(vs)
            for p, e in zip(pos, exp):
                new[p] = e
            terms[tuple(new)] = c
        return MultiPoly(vs, terms)

    @staticmethod
    def align(p: "MultiPoly", q: "MultiPoly") -> Tuple["MultiPoly", "MultiPoly"]:
        if p.vars == q.vars:
            return p, q
        vs = sorted(set(p.vars) | set(q.vars))
        return p.embed(vs), q.embed(vs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        p, q = MultiPoly.align(self, other)
        out = dict(p.terms)
        for exp, c in q.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return MultiPoly._trusted(p.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return MultiPoly._trusted(self.vars, {})
            return MultiPoly._trusted(self.vars, {e: k * c for e, k in self.terms.items()})
        p, q = MultiPoly.align(self, other)
        if not p.terms or not q.terms:
            return MultiPoly._trusted(p.vars, {})
        width = (_max_exponent(p) + _max_exponent(q)).bit_length() + 1
        shifts = range(0, width * len(p.vars), width)
        den_p, pt = _packed_integer_terms(p, shifts)
        den_q, qt = _packed_integer_terms(q, shifts)
        out = packed_product(pt, qt)
        den = den_p * den_q
        mask = (1 << width) - 1
        terms = {
            tuple([(k >> sh) & mask for sh in shifts]): Fraction(a, den)
            for k, a in out.items()
        }
        return MultiPoly._trusted(p.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "MultiPoly":
        return self * Fraction(c)

    def derivative(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            return MultiPoly(self.vars, {})
        i = self.vars.index(name)
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = c * exp[i]
        return MultiPoly(self.vars, out)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation at rational values (all variables bound)."""
        return Fraction(*self.evaluate_ratio(point))

    def evaluate_ratio(self, point: Mapping[str, Fraction]) -> Tuple[int, int]:
        """Exact value at rational values as an integer pair (n, d), d > 0.

        For point values a_v/b_v in lowest terms and the degree D_v of each
        variable, n is the sum of c' * prod a_v^e_v * b_v^(D_v - e_v) over the
        terms and d is scale * prod b_v^D_v, where the c' are the
        coefficients cleared to integers over their lcm ``scale``.  Power
        tables are built once per call and no Fraction arithmetic happens.
        """
        terms = self.terms
        scale = lcm(*(c.denominator for c in terms.values()))
        if terms:
            degrees = [max(column) for column in zip(*terms)]
        else:
            degrees = [0] * len(self.vars)
        tables = []
        base = 1
        for v, deg in zip(self.vars, degrees):
            table = power_table(point[v], deg)
            tables.append(table)
            base *= table[0]
        total = 0
        for exp, c in terms.items():
            n = c.numerator * (scale // c.denominator)
            for t, e in zip(tables, exp):
                n *= t[e]
            total += n
        return total, scale * base

    def evaluate_in(self, point: Mapping[str, object], coerce: Callable) -> object:
        """Evaluation in an arbitrary coefficient domain.

        ``coerce`` maps a Fraction into the target domain; point values must
        already live there.  Used for arbitrary-precision complex evaluation.
        """
        vals = [point[v] for v in self.vars]
        total = coerce(Fraction(0))
        for exp, c in self.terms.items():
            term = coerce(c)
            for v, e in zip(vals, exp):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    # -- equality / hashing / display ---------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if set(self.vars) != set(other.vars):
            p, q = MultiPoly.align(self, other)
            return p.terms == q.terms
        return self.terms == other.terms

    def __hash__(self) -> int:
        # only variables that occur in some term enter the hash, so equal
        # polynomials over different variable tables hash alike
        if self._hash is None:
            used = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
            self._hash = hash(
                (
                    tuple(self.vars[i] for i in used),
                    frozenset((tuple(e[i] for i in used), c) for e, c in self.terms.items()),
                )
            )
        return self._hash

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def to_expr_string(self) -> str:
        """Serialize in the expression grammar (identifiers, + - * / ^)."""
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            coeff = abs(c)
            if not factors:
                body = _frac_str(coeff)
            elif coeff == 1:
                body = "*".join(factors)
            else:
                body = _frac_str(coeff) + "*" + "*".join(factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_expr_string()!r})"


def packed_product(a: Iterable[Tuple[int, int]], b: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Product of two sequences of (packed exponent, int coefficient) pairs.

    Terms accumulate in the plain loop order over a then b; a term whose sum
    cancels to zero is removed and re-inserted if it reappears, so the
    result's insertion order is the plain Fraction loop's.  ``b`` is read
    once per term of ``a``, so it must be re-iterable.
    """
    out: Dict[int, int] = {}
    get = out.get
    pop = out.pop
    for k1, a1 in a:
        for k2, a2 in b:
            k = k1 + k2
            s = get(k, 0) + a1 * a2
            if s:
                out[k] = s
            else:
                pop(k)
    return out


def power_table(q, deg: int) -> List[int]:
    """[a^e * b^(deg - e) for e = 0..deg], for q = a/b in lowest terms, b > 0.

    Entry 0 is b^deg.  A polynomial of degree <= deg in one variable,
    homogenized to deg, takes its value at q times b^deg by looking its
    monomials up in this table.
    """
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    a, b = q.numerator, q.denominator
    a_pows = [1]
    b_pows = [1]
    for _ in range(deg):
        a_pows.append(a_pows[-1] * a)
        b_pows.append(b_pows[-1] * b)
    return [a_pows[e] * b_pows[deg - e] for e in range(deg + 1)]


def _max_exponent(p: MultiPoly) -> int:
    return max(max(e, default=0) for e in p.terms)


def _packed_integer_terms(p: MultiPoly, shifts: range) -> Tuple[int, list]:
    """(lcm of the denominators, [(packed exponent, integer coefficient)])."""
    den = 1
    for c in p.terms.values():
        den = den // gcd(den, c.denominator) * c.denominator
    return den, [
        (sum(e << sh for e, sh in zip(exp, shifts)), c.numerator * (den // c.denominator))
        for exp, c in p.terms.items()
    ]


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
