"""Sparse tensors with exact coefficients.

A tensor is a plain dict from basis keys to nonzero exact coefficients (int
or Fraction); a missing key has coefficient zero, so the empty dict is the
zero tensor and equality is dict equality.  Every helper keeps the invariant
that no stored coefficient is zero.  The loops run on plain dicts, without
per-coordinate calls, because they make every coordinate update of the
weight-4 proof: about half a million for n = 2..6 together, 0.9 million at
n = 8.

``bump``, ``lin`` and ``vsum`` take any keys.  The product helpers take
packed int keys: a vector's keys are basis indices below 2**width, and
``wedge``, ``sym`` and ``add_product`` store a pair (a, b) as the single int
a << width | b (``unpack`` inverts it).  ``sym_power`` packs a sorted
k-tuple i1 <= ... <= ik the same way, one width-bit field per factor with the
smallest index in the highest field, so ``sym_power(v, 2, width) ==
sym(v, v, width)``.  A product of two packed pieces is packed again, the
right piece in the low bits, so a Sym^k (x) Lambda^2 coordinate is one int
of (k + 2) * width bits, which hashes and compares faster than a nested
tuple.  The width must cover every index: 2**width > largest index.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, Tuple

__all__ = ["bump", "lin", "vsum", "wedge", "sym", "sym_power", "add_product", "unpack"]


def unpack(key: int, width: int) -> Tuple[int, int]:
    """The key pair (a, b) packed as a << width | b."""
    return key >> width, key & ((1 << width) - 1)


def bump(acc: Dict, other: Dict, c=1) -> Dict:
    """acc += c * other in place, dropping coordinates that cancel; returns acc."""
    if c:
        for k, x in other.items():
            x = acc.get(k, 0) + c * x
            if x:
                acc[k] = x
            else:
                acc.pop(k, None)
    return acc


def lin(*terms: Tuple[int, Dict]) -> Dict:
    """The linear combination sum c * v over (c, v) pairs."""
    out: Dict = {}
    for c, v in terms:
        bump(out, v, c)
    return out


def vsum(vs: Iterable[Dict]) -> Dict:
    return lin(*((1, v) for v in vs))


def wedge(u: Dict, v: Dict, width: int) -> Dict:
    """u ^ v: the coordinate of a ^ b sits on a << width | b when a < b,
    negated on b << width | a otherwise."""
    out: Dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            if a == b:
                continue
            key, c = (a << width | b, ca * cb) if a < b else (b << width | a, -ca * cb)
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def sym(u: Dict, v: Dict, width: int) -> Dict:
    """u.v in Sym^2, keyed by sorted pairs lo << width | hi."""
    out: Dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            key = a << width | b if a <= b else b << width | a
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def sym_power(v: Dict, k: int, width: int) -> Dict:
    """v^k in Sym^k, keyed by packed sorted k-tuples (see the module docstring).

    Each monomial is built once, as a non-decreasing index sequence: taking
    the indices in increasing order, e copies of index a among the ``left``
    fields still open multiply the coefficient by comb(left, e) * v[a]**e,
    so a finished monomial carries its multinomial count.  Every monomial's
    coefficient is a nonzero product, so nothing cancels.
    """
    partial = [(0, k, 1)]  # (packed key, fields left, coefficient)
    for a, ca in sorted(v.items()):
        grown = []
        for key, left, c in partial:
            power = c
            for e in range(left + 1):
                grown.append((key, left - e, power * comb(left, e)))
                key = key << width | a
                power *= ca
        partial = grown
    return {key: c for key, left, c in partial if not left}


def add_product(acc: Dict, left: Dict, right: Dict, c, width: int) -> Dict:
    """acc += c * left (x) right in place, keyed by lk << width | rk; returns acc."""
    for lk, lc in left.items():
        f = c * lc
        base = lk << width
        for rk, rc in right.items():
            key = base | rk
            x = acc.get(key, 0) + f * rc
            if x:
                acc[key] = x
            else:
                acc.pop(key, None)
    return acc
