"""Sparse multivariate polynomials over the rationals.

A polynomial carries a sorted tuple of variable names and a sparse map from
exponent vectors to nonzero coefficients: a Python int when integral, else
a Fraction with denominator > 1, so integral algebra builds no Fraction.
The canonical term order is graded lexicographic over the sorted variable
table, which fixes a unique leading monomial and a reproducible
serialization for every polynomial.

Exact arithmetic runs on one integer form, defined here and nowhere else:
an ``IntPoly`` maps exponent tuples to ints.  ``cleared`` is the way in: it
takes one or more polynomials to their common denominator (the lcm of every
coefficient's denominator) and their coefficients times it, in term order
(``RatFunc.cleared`` does this for a num/den pair).  ``MultiPoly.from_ints``
is the way back: an IntPoly over an integer denominator, in the IntPoly's
insertion order; for an integral polynomial both copy the term map.
Between the two, everything is integer:

* ``pack`` turns each exponent vector into one int with a field per
  variable, wide enough that no exponent sum carries into the next field,
  and ``unpack`` reverses it.  ``packed_product`` multiplies packed terms
  in the plain Fraction loop's order, removing a term whose sum cancels to
  zero and re-inserting it if it reappears, so a product's insertion order
  is exactly the plain loop's.  ``MultiPoly.__mul__`` and
  ``RatFunc.substitute`` both expand this way, packing each operand from
  its own variable table straight into the fields of the union table.  A
  product with a constant factor over a table inside the other factor's
  packs nothing: it scales the other factor's terms in their own order,
  the order the plain loop gives when one side has a single term (a factor
  of 1 gives back the other factor itself).
* ``int_value`` sums integer terms against power tables a^e b^(D-e)
  (``power_table``): a point value a/b homogenized to its variable's
  degree D.  ``MultiPoly.evaluate_ratio`` evaluates this way, and
  ``RatFunc.evaluate`` decides poles and 0/0 on the integer values before
  building its single Fraction; the kernel test's specializer
  (``criterion``) multiplies the same tables into each monomial of a
  sum's argument plan (``formal.ArgumentPlan``).

``evaluate_in`` sums in term insertion order, in floating point.  It serves
only the tests' reference: the numeric drivers and the kernel test sum a
sum's argument plan in integers, where the order changes no value.
Keeping the plain loop's order keeps a product equal to the plain loop's
term for term, which the tests check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

__all__ = ["MultiPoly", "grlex_key"]

Exponent = Tuple[int, ...]
#: The integer form: exponent vector -> nonzero int.
IntPoly = Dict[Exponent, int]
#: A coefficient: an int when integral, else a Fraction with denominator > 1.
Coeff = Union[int, Fraction]


def grlex_key(exp: Exponent) -> Tuple[int, Exponent]:
    """Graded-lex sort key: total degree first, then lex on exponents."""
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse polynomial with ``Coeff`` coefficients.

    Zero coefficients are never stored; the zero polynomial has an empty term
    map.  Variables are kept sorted, so two polynomials over the same
    variable set have directly comparable exponent vectors.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Coeff]):
        vs = tuple(variables)
        if list(vs) != sorted(vs):
            raise ValueError("variables must be sorted")
        if len(set(vs)) != len(vs):
            raise ValueError("repeated variable name")
        cleaned = {}
        for exp, c in terms.items():
            if len(exp) != len(vs):
                raise ValueError("exponent arity mismatch")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            if c != 0:
                cleaned[tuple(exp)] = _coeff(c)
        self.vars = vs
        self.terms = cleaned
        self._hash = None

    @classmethod
    def _trusted(cls, vs: Tuple[str, ...], terms: Dict[Exponent, Coeff]) -> "MultiPoly":
        """Wrap sorted variables and nonzero canonical terms without re-checking."""
        p = object.__new__(cls)
        p.vars = vs
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def from_ints(
        cls, vs: Tuple[str, ...], terms: Iterable[Tuple[Exponent, int]], den: int = 1
    ) -> "MultiPoly":
        """The polynomial with coefficients a / den over the sorted variables
        ``vs``, from an IntPoly's (exponent, nonzero a) items in their order;
        ``den`` is a nonzero int, and a / den is an int wherever it divides a."""
        if den == 1:
            return cls._trusted(vs, dict(terms))
        return cls._trusted(
            vs, {e: a // den if a % den == 0 else Fraction(a, den) for e, a in terms}
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "MultiPoly":
        return MultiPoly(sorted(variables), {})

    @staticmethod
    def const(value, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = sorted(variables)
        c = _coeff(value)
        if c == 0:
            return MultiPoly(vs, {})
        return MultiPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def var(name: str, variables: Iterable[str] | None = None) -> "MultiPoly":
        vs = sorted(set(variables) | {name}) if variables else [name]
        exp = tuple(1 if v == name else 0 for v in vs)
        return MultiPoly(vs, {exp: 1})

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
        return Fraction(next(iter(self.terms.values())))

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def leading(self) -> Tuple[Exponent, Coeff]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def embed(self, variables: Iterable[str]) -> "MultiPoly":
        """Reinterpret over a superset of variables."""
        vs = tuple(sorted(variables))
        if vs == self.vars:
            return self
        names = set(vs)
        if len(names) != len(vs):
            raise ValueError("repeated variable name")
        if not names.issuperset(self.vars):
            raise ValueError("embedding must not drop variables")
        pos = [vs.index(v) for v in self.vars]
        terms: Dict[Exponent, Coeff] = {}
        for exp, c in self.terms.items():
            new = [0] * len(vs)
            for p, e in zip(pos, exp):
                new[p] = e
            terms[tuple(new)] = c
        return MultiPoly._trusted(vs, terms)

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
            s = out.get(exp, 0) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = _coeff(s)
        return MultiPoly._trusted(p.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if c == 0:
                return MultiPoly._trusted(self.vars, {})
            return MultiPoly._trusted(self.vars, {e: _coeff(k * c) for e, k in self.terms.items()})
        vs = self.vars if self.vars == other.vars else tuple(sorted({*self.vars, *other.vars}))
        if not self.terms or not other.terms:
            return MultiPoly._trusted(vs, {})
        for p, q in ((self, other), (other, self)):
            if len(q.terms) == 1 and p.vars == vs:
                ((exp, c),) = q.terms.items()
                if not any(exp):  # a constant factor: scale p in its own term order
                    return p if c == 1 else p * c
        width = (_max_exponent(self) + _max_exponent(other)).bit_length() + 1
        shifts = range(0, width * len(vs), width)
        den, (ip, iq) = cleared(self, other)
        out = packed_product(
            pack(ip, _shifts_in(self.vars, vs, shifts)), pack(iq, _shifts_in(other.vars, vs, shifts))
        )
        return MultiPoly.from_ints(vs, unpack(out, shifts, width), den * den)

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

    def derivative(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            return MultiPoly(self.vars, {})
        i = self.vars.index(name)
        out: Dict[Exponent, Coeff] = {}
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
        variable, n is ``int_value`` of the cleared coefficients against the
        power tables a_v^e * b_v^(D_v - e) and d is the common denominator
        times prod b_v^D_v.  No Fraction arithmetic happens.
        """
        scale, (terms,) = cleared(self)
        if terms:
            degrees = [max(column) for column in zip(*terms)]
        else:
            degrees = [0] * len(self.vars)
        tables = [power_table(point[v], deg) for v, deg in zip(self.vars, degrees)]
        base = 1
        for table in tables:
            base *= table[0]
        return int_value(terms, tables), scale * base

    def evaluate_in(self, point: Mapping[str, object], coerce: Callable) -> object:
        """Evaluation in an arbitrary coefficient domain.

        ``coerce`` maps a coefficient into the target domain; point values must
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


def cleared(*polys: MultiPoly) -> Tuple[int, List[IntPoly]]:
    """(d, [d * p for p in polys]): d is the lcm of the denominators of every
    coefficient of every p, and each d * p is an IntPoly in p's term order."""
    d = lcm(*{c.denominator for p in polys for c in p.terms.values()})
    if d == 1:
        return 1, [dict(p.terms) for p in polys]
    return d, [
        {e: c.numerator * (d // c.denominator) for e, c in p.terms.items()} for p in polys
    ]


def pack(p: IntPoly, shifts: Sequence[int]) -> List[Tuple[int, int]]:
    """[(packed exponent, coefficient)]: exponent i goes to bit ``shifts[i]``."""
    return [(sum(e << sh for e, sh in zip(exp, shifts)), c) for exp, c in p.items()]


def unpack(
    packed: Mapping[int, int], shifts: Sequence[int], width: int
) -> List[Tuple[Exponent, int]]:
    """The IntPoly items whose exponent i is the ``width``-bit field at
    ``shifts[i]`` of each packed key, in ``packed``'s order."""
    mask = (1 << width) - 1
    return [(tuple([(k >> sh) & mask for sh in shifts]), a) for k, a in packed.items()]


def int_value(p: IntPoly, tables: List[List[int]]) -> int:
    """The sum over the terms of c * prod tables[i][exponent i]."""
    total = 0
    for exp, n in p.items():
        for t, e in zip(tables, exp):
            n *= t[e]
        total += n
    return total


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
    table = [b ** deg]
    for _ in range(deg):
        table.append(table[-1] // b * a)
    return table


def _shifts_in(own: Tuple[str, ...], vs: Tuple[str, ...], shifts: Sequence[int]) -> Sequence[int]:
    """The bit offsets, among ``shifts`` for the table ``vs``, of the
    variables of the table ``own`` (a subset of ``vs``)."""
    if own == vs:
        return shifts
    return [shifts[vs.index(v)] for v in own]


def _max_exponent(p: MultiPoly) -> int:
    return max(max(e, default=0) for e in p.terms)


def _coeff(c) -> Coeff:
    """The rational c as a coefficient: an int when integral, else a Fraction."""
    c = c if type(c) is int else Fraction(c)
    return c if c.denominator != 1 else c.numerator


def _frac_str(c: Coeff) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
